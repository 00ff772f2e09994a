package prefetch

import (
	"runtime"
	"runtime/debug"
	"testing"

	"itpsim/internal/arch"
)

func TestNextLine(t *testing.T) {
	p := NewNextLine()
	out := p.Train(&arch.Access{Addr: 0x1005, Kind: arch.Load})
	if len(out) != 1 || out[0] != 0x1040 {
		t.Errorf("next-line = %#v, want [0x1040]", out)
	}
	if p.Name() != "next-line" {
		t.Error("name wrong")
	}
}

func TestStrideDetectsUnitStride(t *testing.T) {
	p := NewStride(256, 2)
	pc := uint64(0x400100)
	// First access trains the entry, second establishes the stride,
	// third confirms it and triggers prefetches.
	var out []arch.Addr
	for i := 0; i < 3; i++ {
		out = p.Train(&arch.Access{PC: pc, Addr: arch.Addr(i) * arch.BlockSize, Kind: arch.Load})
	}
	if len(out) != 2 {
		t.Fatalf("prefetches = %d, want 2", len(out))
	}
	if out[0] != 3*arch.BlockSize || out[1] != 4*arch.BlockSize {
		t.Errorf("prefetch addrs = %#v", out)
	}
}

func TestStrideDetectsLargeStride(t *testing.T) {
	p := NewStride(256, 1)
	pc := uint64(0x8000)
	var out []arch.Addr
	for i := 0; i < 3; i++ {
		out = p.Train(&arch.Access{PC: pc, Addr: arch.Addr(i) * 4 * arch.BlockSize})
	}
	if len(out) != 1 || out[0] != 12*arch.BlockSize {
		t.Errorf("stride-4 prefetch = %#v, want [12 blocks]", out)
	}
}

func TestStrideIgnoresSameBlock(t *testing.T) {
	p := NewStride(64, 2)
	pc := uint64(0x100)
	p.Train(&arch.Access{PC: pc, Addr: 0x1000})
	out := p.Train(&arch.Access{PC: pc, Addr: 0x1008}) // same block
	if len(out) != 0 {
		t.Errorf("same-block access produced prefetches: %v", out)
	}
}

func TestStrideResetsOnStrideChange(t *testing.T) {
	p := NewStride(64, 1)
	pc := uint64(0x100)
	p.Train(&arch.Access{PC: pc, Addr: 0})
	p.Train(&arch.Access{PC: pc, Addr: 1 * arch.BlockSize})
	p.Train(&arch.Access{PC: pc, Addr: 2 * arch.BlockSize})
	// Stride changes: confidence must reset, no prefetch on first new-stride access.
	out := p.Train(&arch.Access{PC: pc, Addr: 10 * arch.BlockSize})
	if len(out) != 0 {
		t.Errorf("stride change should reset confidence, got %v", out)
	}
}

func TestStrideDistinguishesPCs(t *testing.T) {
	p := NewStride(256, 1)
	// Interleaved PCs with different strides must both train. The Train
	// result aliases an internal buffer, so copy before the next call.
	var outA, outB []arch.Addr
	for i := 0; i < 3; i++ {
		outA = append(outA[:0], p.Train(&arch.Access{PC: 0x1000, Addr: arch.Addr(i) * arch.BlockSize})...)
		outB = append(outB[:0], p.Train(&arch.Access{PC: 0x2000, Addr: arch.Addr(i) * 2 * arch.BlockSize})...)
	}
	if len(outA) != 1 || outA[0] != 3*arch.BlockSize {
		t.Errorf("PC A prefetch = %v", outA)
	}
	if len(outB) != 1 || outB[0] != 6*arch.BlockSize {
		t.Errorf("PC B prefetch = %v", outB)
	}
}

func TestStrideNegativeGuards(t *testing.T) {
	p := NewStride(64, 4)
	pc := uint64(0x100)
	// Descending accesses near address zero: prefetches must not wrap.
	p.Train(&arch.Access{PC: pc, Addr: 3 * arch.BlockSize})
	p.Train(&arch.Access{PC: pc, Addr: 2 * arch.BlockSize})
	out := p.Train(&arch.Access{PC: pc, Addr: 1 * arch.BlockSize})
	for _, a := range out {
		if a >= 1*arch.BlockSize {
			t.Errorf("negative-stride prefetch went forward/wrapped: %#x", a)
		}
	}
}

// TestRecycledStrideStartsFresh: a prefetcher built on a released
// prefetcher's table trains like a new one. The released one was armed
// on a unit stride; had its row survived, the first access from the same
// PC one block further on would prefetch at once.
func TestRecycledStrideStartsFresh(t *testing.T) {
	// No collection and one processor: a released table stays in this
	// processor's pool slot until the next NewStride takes it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	pc := uint64(0x400100)
	reused := false
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until one release comes back.
	for try := 0; try < 20 && !reused; try++ {
		old := NewStride(64, 2)
		for i := 0; i < 4; i++ {
			old.Train(&arch.Access{PC: pc, Addr: arch.Addr(i) * arch.BlockSize})
		}
		row := &old.table[0]
		old.Release()
		old.Release() // idempotent

		p := NewStride(64, 2)
		reused = &p.table[0] == row
		if out := p.Train(&arch.Access{PC: pc, Addr: 4 * arch.BlockSize}); len(out) != 0 {
			t.Fatalf("first access on a recycled table prefetched %v", out)
		}
	}
	if !reused {
		t.Fatal("NewStride never reused a released table")
	}
}

// TestReleasedStridePanics: a released prefetcher has no table left.
func TestReleasedStridePanics(t *testing.T) {
	p := NewStride(64, 2)
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("training a released prefetcher did not panic")
		}
	}()
	p.Train(&arch.Access{PC: 0x100, Addr: 0x1000})
}
