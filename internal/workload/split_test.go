package workload

import (
	"testing"

	"itpsim/internal/arch"
)

// collect drains n instructions from s.
func collect(s Stream, n int) []Instr {
	out := make([]Instr, n)
	got := FillBatch(s, out)
	return out[:got]
}

// splitStreams builds every stream kind the splitter must support.
func splitStreams() map[string]func() Stream {
	return map[string]func() Stream{
		"server": func() Stream { return NewServer(defaultServer()) },
		"spec":   func() Stream { return NewSpec(defaultSpec()) },
		"limited-server": func() Stream {
			return Limit(NewServer(defaultServer()), 1<<20)
		},
		"replay": func() Stream {
			src := NewSpec(defaultSpec())
			rec := make([]Instr, 8192)
			FillBatch(src, rec)
			return &Replay{Instrs: rec}
		},
	}
}

// TestSkipEquivalence: a substream positioned with Skip(off) reproduces
// the serial stream's suffix byte-for-byte, at offsets exercising batch
// boundaries and the lookahead-sized strides the simulator uses.
func TestSkipEquivalence(t *testing.T) {
	const m = 2048
	offsets := []uint64{0, 1, 7, BatchSize - 1, BatchSize, BatchSize + 1, 3*BatchSize + 17, 5000}
	for name, mk := range splitStreams() {
		t.Run(name, func(t *testing.T) {
			for _, off := range offsets {
				serial := collect(mk(), int(off)+m)
				if uint64(len(serial)) < off {
					t.Fatalf("offset %d beyond stream length %d", off, len(serial))
				}
				want := serial[off:]
				sub := mk()
				if got := Skip(sub, off); got != off {
					t.Fatalf("Skip(%d) consumed %d", off, got)
				}
				got := collect(sub, len(want))
				if len(got) != len(want) {
					t.Fatalf("offset %d: substream yielded %d instrs, want %d", off, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("offset %d: instr %d diverged: %+v vs %+v", off, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestCloneEquivalence: a clone taken mid-flight must (a) reproduce the
// source's future output exactly and (b) leave the source unperturbed
// while being consumed.
func TestCloneEquivalence(t *testing.T) {
	const off, m = 4097, 2048
	for name, mk := range splitStreams() {
		t.Run(name, func(t *testing.T) {
			want := collect(mk(), off+2*m)[off:]

			s := mk()
			Skip(s, off)
			c, ok := CloneStream(s)
			if !ok {
				t.Fatalf("%s stream is not clonable", name)
			}
			// Consume the clone fully before touching the source: any
			// state aliasing (shared rng, shared call stack) would make
			// one of the two sequences diverge.
			gotClone := collect(c, m)
			gotSrc := collect(s, 2*m)
			for i := range gotClone {
				if gotClone[i] != want[i] {
					t.Fatalf("clone diverged at instr %d: %+v vs %+v", i, gotClone[i], want[i])
				}
			}
			for i := range gotSrc {
				if gotSrc[i] != want[i] {
					t.Fatalf("source perturbed by clone at instr %d: %+v vs %+v", i, gotSrc[i], want[i])
				}
			}
		})
	}
}

// TestCloneOfClone: snapshot reuse (the shard split index clones cached
// clones per run) must compose.
func TestCloneOfClone(t *testing.T) {
	s := NewServer(defaultServer())
	Skip(s, 1000)
	c1, ok := CloneStream(s)
	if !ok {
		t.Fatal("server not clonable")
	}
	c2, ok := CloneStream(c1)
	if !ok {
		t.Fatal("clone not clonable")
	}
	a, b, c := collect(s, 512), collect(c1, 512), collect(c2, 512)
	for i := range a {
		if a[i] != b[i] || a[i] != c[i] {
			t.Fatalf("clone-of-clone diverged at %d", i)
		}
	}
}

// TestCloneNonClonable: wrappers over non-clonable streams must report
// not-ok rather than return a broken clone.
func TestCloneNonClonable(t *testing.T) {
	opaque := funcStream(func(in *Instr) bool { in.PC = 4096; return true })
	if _, ok := CloneStream(opaque); ok {
		t.Fatal("bare func stream reported clonable")
	}
	if _, ok := CloneStream(Limit(opaque, 10)); ok {
		t.Fatal("limited over non-clonable stream reported clonable")
	}
}

type funcStream func(*Instr) bool

func (f funcStream) Next(in *Instr) bool { return f(in) }

// TestSkipShortStream: skipping past the end reports the true count.
func TestSkipShortStream(t *testing.T) {
	s := Limit(NewSpec(defaultSpec()), 100)
	if got := Skip(s, 250); got != 100 {
		t.Fatalf("Skip past end consumed %d, want 100", got)
	}
	var in Instr
	if s.Next(&in) {
		t.Fatal("stream still produced after exhaustion")
	}
}

// TestPull: Pull hands over n instructions in order, pulling past the
// short batches a decode-ahead source returns mid-stream, and stops at
// the segment on which f declines.
func TestPull(t *testing.T) {
	p := Prefetch(&Replay{Instrs: replayN(5000)})
	defer p.Close()
	var in Instr
	for i := 0; i < 100; i++ { // leave the current batch part-read
		p.Next(&in)
	}
	next := 100
	got := Pull(p, 3000, func(seg []Instr) bool {
		for _, in := range seg {
			if want := 0x400000 + arch.Addr(next)*4; in.PC != want {
				t.Fatalf("instr %d: PC %#x, want %#x", next, in.PC, want)
			}
			next++
		}
		return true
	})
	if got != 3000 || next != 3100 {
		t.Fatalf("Pull handed over %d instructions (%d checked), want 3000", got, next-100)
	}

	segs := 0
	got = Pull(NewSpec(defaultSpec()), 5000, func([]Instr) bool {
		segs++
		return false
	})
	if segs != 1 || got != BatchSize {
		t.Fatalf("Pull after a declined segment: %d segments, %d instructions, want 1 and %d", segs, got, BatchSize)
	}
}

// TestPullOverRingInPlace: Pull over a decode-ahead ring, as a
// functional warmup over a ring calls it, hands f each segment in place
// in the ring's current batch, so it borrows no batch of its own. It
// hands over the same instructions as the bare source yields, from a
// part-read batch up to exactly n, and the ring resumes right after them.
func TestPullOverRingInPlace(t *testing.T) {
	const skip, n = 100, 3*BatchSize + 7
	want := collect(NewServer(defaultServer()), skip+n+1)

	p := Prefetch(NewServer(defaultServer()))
	defer p.Close()
	var in Instr
	for i := 0; i < skip; i++ { // leave the current batch part-read
		p.Next(&in)
	}
	var got []Instr
	done := Pull(p, n, func(seg []Instr) bool {
		if &seg[0] != &p.cur.buf[p.pos-len(seg)] {
			t.Fatal("Pull over a ring handed f a copy, not the ring's batch")
		}
		got = append(got, seg...)
		return true
	})
	if done != n || len(got) != n {
		t.Fatalf("Pull over a ring handed over %d instructions (%d counted), want %d", len(got), done, n)
	}
	for i := range got {
		if got[i] != want[skip+i] {
			t.Fatalf("instruction %d over the ring is %+v, the bare source's is %+v", i, got[i], want[skip+i])
		}
	}
	if !p.Next(&in) || in != want[skip+n] {
		t.Fatalf("after Pull the ring reads %+v, want %+v", in, want[skip+n])
	}
}

// FuzzSplitEquivalence: for arbitrary seeds and offsets, the substream
// obtained by skipping (and cloning at) the offset reproduces the serial
// stream byte-for-byte.
func FuzzSplitEquivalence(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(64), false)
	f.Add(uint64(42), uint16(1023), uint16(300), true)
	f.Add(uint64(7), uint16(1024), uint16(1), false)
	f.Add(uint64(99), uint16(4099), uint16(513), true)
	f.Fuzz(func(t *testing.T, seed uint64, off16 uint16, n16 uint16, useSpec bool) {
		off, n := uint64(off16), int(n16%2048)+1
		mk := func() Stream {
			if useSpec {
				p := defaultSpec()
				p.Seed = seed
				return NewSpec(p)
			}
			p := defaultServer()
			p.Seed = seed
			return NewServer(p)
		}
		want := collect(mk(), int(off)+n)[off:]

		sub := mk()
		if got := Skip(sub, off); got != off {
			t.Fatalf("Skip(%d) consumed %d", off, got)
		}
		c, ok := CloneStream(sub)
		if !ok {
			t.Fatal("generator not clonable")
		}
		gotClone := collect(c, n)
		gotSkip := collect(sub, n)
		for i := range want {
			if gotSkip[i] != want[i] {
				t.Fatalf("seed %d off %d: skip path diverged at %d", seed, off, i)
			}
			if gotClone[i] != want[i] {
				t.Fatalf("seed %d off %d: clone path diverged at %d", seed, off, i)
			}
		}
	})
}
