package tlb

import (
	"math/rand"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/replacement"
)

// touch performs the simulator's lookup-then-insert-on-miss protocol for
// one 4KB page.
func touch(t *TLB, vpn uint64, class arch.Class) {
	va := arch.Addr(vpn << arch.PageBits4K)
	if _, _, hit := t.Lookup(va, 0, class, 0); !hit {
		t.Insert(va, vpn, arch.PageBits4K, class, 0, 0)
	}
}

// TestTLBLRUInclusion checks the stack-inclusion property end to end
// through the TLB structure (not just the bare policy): under identical
// reference streams a 4-way single-set LRU TLB holds a subset of an
// 8-way one.
func TestTLBLRUInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		small := New("small", 1, 4, NewLRU())
		large := New("large", 1, 8, NewLRU())
		for step := 0; step < 3000; step++ {
			vpn := uint64(rng.Intn(24) + 1)
			class := arch.DataClass
			if rng.Intn(3) == 0 {
				class = arch.InstrClass
			}
			touch(small, vpn, class)
			touch(large, vpn, class)
			for _, e := range small.sets[0].Entries {
				if !e.Valid {
					continue
				}
				va := arch.Addr(e.VPN << arch.PageBits4K)
				if _, _, _, ok := large.Peek(va, 0); !ok {
					t.Fatalf("trial %d step %d: VPN %d in 4-way but not 8-way TLB (inclusion violated)",
						trial, step, e.VPN)
				}
			}
		}
	}
}

// TestTLBStackInvariantUnderRandomOps fuzzes a multi-set TLB with mixed
// page sizes, classes, and threads, checking every set keeps its stack
// permutation and the occupancy accounting matches the entries.
func TestTLBStackInvariantUnderRandomOps(t *testing.T) {
	tl := New("fuzz", 4, 8, NewLRU())
	rng := rand.New(rand.NewSource(23))
	for step := 0; step < 10000; step++ {
		vpn := uint64(rng.Intn(200))
		class := arch.Class(rng.Intn(2))
		thread := uint8(rng.Intn(2))
		bits := uint8(arch.PageBits4K)
		if rng.Intn(10) == 0 {
			bits = arch.PageBits2M
		}
		va := arch.Addr(vpn) << bits
		if _, _, hit := tl.Lookup(va, 0, class, thread); !hit {
			tl.Insert(va, vpn, bits, class, 0, thread)
		}
		for si, set := range tl.sets {
			if !replacement.CheckStackInvariant(set.Stack) {
				t.Fatalf("step %d: set %d stack invariant broken", step, si)
			}
		}
	}
	instr, data := tl.Occupancy()
	var wantI, wantD int
	for _, set := range tl.sets {
		for _, e := range set.Entries {
			if !e.Valid {
				continue
			}
			if e.Class == arch.InstrClass {
				wantI++
			} else {
				wantD++
			}
		}
	}
	if instr != wantI || data != wantD {
		t.Fatalf("Occupancy = (%d,%d), entries say (%d,%d)", instr, data, wantI, wantD)
	}
}

// TestTLBDemandTrafficMatchesReference checks the TLB's hit/miss outcomes
// under a random mixed-class stream against a hand-kept LRU model of the
// same geometry, step by step and in total.
func TestTLBDemandTrafficMatchesReference(t *testing.T) {
	const sets, ways = 2, 4
	tl := New("counted", sets, ways, NewLRU())
	ref := make([][]uint64, sets) // per set, most recent first
	rng := rand.New(rand.NewSource(5))
	var hits, misses, refHits, refMisses uint64
	for step := 0; step < 5000; step++ {
		vpn := uint64(rng.Intn(40))
		class := arch.Class(rng.Intn(2))
		va := arch.Addr(vpn << arch.PageBits4K)
		_, _, hit := tl.Lookup(va, 0, class, 0)
		if hit {
			hits++
		} else {
			misses++
			tl.Insert(va, vpn, arch.PageBits4K, class, 0, 0)
		}

		set := ref[vpn%sets]
		pos := -1
		for i, v := range set {
			if v == vpn {
				pos = i
			}
		}
		if pos >= 0 {
			refHits++
			set = append(set[:pos], set[pos+1:]...)
		} else {
			refMisses++
			if len(set) == ways {
				set = set[:ways-1]
			}
		}
		ref[vpn%sets] = append([]uint64{vpn}, set...)
		if hit != (pos >= 0) {
			t.Fatalf("step %d: vpn %d hit=%v, reference says %v", step, vpn, hit, pos >= 0)
		}
	}
	if hits != refHits || misses != refMisses {
		t.Fatalf("TLB saw %d hits/%d misses, reference %d/%d", hits, misses, refHits, refMisses)
	}
}
