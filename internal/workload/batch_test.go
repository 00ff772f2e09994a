package workload

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"itpsim/internal/arch"
)

// replayN builds n distinguishable instructions.
func replayN(n int) []Instr {
	instrs := make([]Instr, n)
	for i := range instrs {
		instrs[i].PC = 0x400000 + arch.Addr(i)*4
	}
	return instrs
}

// TestPrefetchedMatchesDirect is the ingestion property: a stream pulled
// through the decode-ahead pipeline yields the identical instruction
// sequence as the same generator pulled directly — for both generator
// families, a finite Replay, and a Limit wrapper (whose NextBatch caps
// batches at the remaining budget, exercising the short-non-zero case).
func TestPrefetchedMatchesDirect(t *testing.T) {
	mk := map[string]func() Stream{
		"server": func() Stream {
			return NewServer(defaultServer())
		},
		"spec": func() Stream {
			return NewSpec(defaultSpec())
		},
		"replay": func() Stream {
			return &Replay{Instrs: replayN(5000)}
		},
		"limited": func() Stream {
			return Limit(NewServer(defaultServer()), 4321)
		},
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			direct := f()
			p := Prefetch(f())
			defer p.Close()
			var want, got Instr
			for i := 0; ; i++ {
				if i > 20_000 {
					return // infinite generator: 20k matched is enough
				}
				dOK := direct.Next(&want)
				pOK := p.Next(&got)
				if dOK != pOK {
					t.Fatalf("instr %d: direct ok=%v, prefetched ok=%v", i, dOK, pOK)
				}
				if !dOK {
					return
				}
				if got != want {
					t.Fatalf("instr %d diverged:\nprefetched %+v\ndirect     %+v", i, got, want)
				}
			}
		})
	}
}

// TestPrefetchedNextBatchContract checks the NextBatcher contract on the
// consumer side: short non-zero batches are legal mid-stream, 0 appears
// exactly at end of stream and stays 0.
func TestPrefetchedNextBatchContract(t *testing.T) {
	const total = 2500 // not a multiple of BatchSize: final chunk is short
	p := Prefetch(&Replay{Instrs: replayN(total)})
	defer p.Close()
	buf := make([]Instr, 700) // not a divisor of BatchSize: splits chunks
	got := 0
	for {
		n := p.NextBatch(buf)
		if n == 0 {
			break
		}
		for i := 0; i < n; i++ {
			if want := 0x400000 + arch.Addr(got+i)*4; buf[i].PC != want {
				t.Fatalf("instr %d: PC %#x, want %#x", got+i, buf[i].PC, want)
			}
		}
		got += n
	}
	if got != total {
		t.Fatalf("drained %d instructions, want %d", got, total)
	}
	if n := p.NextBatch(buf); n != 0 {
		t.Fatalf("NextBatch after end = %d, want 0", n)
	}
}

// errAfter yields n instructions and then fails like a corrupt trace: Next
// returns false and Err reports the cause.
type errAfter struct {
	n   int
	err error
}

func (e *errAfter) Next(in *Instr) bool {
	if e.n == 0 {
		return false
	}
	e.n--
	in.PC = 0x400000
	return true
}

func (e *errAfter) Err() error { return e.err }

// TestPrefetchedErrAfterDrain checks terminal-error semantics: Err is nil
// while decoded instructions remain and reports the source error once the
// consumer drains past the failure point — matching direct Stream use.
func TestPrefetchedErrAfterDrain(t *testing.T) {
	boom := errors.New("trace corrupt at record 1500")
	p := Prefetch(&errAfter{n: 1500, err: boom})
	defer p.Close()
	var in Instr
	for i := 0; i < 1500; i++ {
		if !p.Next(&in) {
			t.Fatalf("stream ended early at %d", i)
		}
		if i < 1499 && p.Err() != nil {
			t.Fatalf("Err() = %v before the stream was drained", p.Err())
		}
	}
	if p.Next(&in) {
		t.Fatal("Next returned true past the failure point")
	}
	if !errors.Is(p.Err(), boom) {
		t.Fatalf("Err() = %v, want %v", p.Err(), boom)
	}
}

// panicAfter yields n instructions then panics, like a decoder hitting a
// malformed record it cannot classify.
type panicAfter struct{ n int }

func (e *panicAfter) Next(in *Instr) bool {
	if e.n == 0 {
		panic("malformed trace record")
	}
	e.n--
	in.PC = 0x400000
	return true
}

// TestPrefetchedForwardsPanic checks a source panic is re-raised on the
// consumer goroutine — after every instruction decoded before it has been
// delivered — so the harness's panic containment sees the same failure it
// would under direct consumption.
func TestPrefetchedForwardsPanic(t *testing.T) {
	p := Prefetch(&panicAfter{n: 2100})
	defer p.Close()
	var in Instr
	delivered := 0
	defer func() {
		if r := recover(); r == nil {
			t.Error("source panic was not forwarded to the consumer")
		}
		if delivered != 2100 {
			t.Errorf("panic surfaced after %d instructions, want all 2100 first", delivered)
		}
	}()
	for p.Next(&in) {
		delivered++
	}
}

// TestPrefetchedCloseIdempotent checks Close can be called repeatedly and
// mid-stream, and that re-wrapping an already-prefetched stream is a no-op
// (no second decoder goroutine fighting over the source).
func TestPrefetchedCloseIdempotent(t *testing.T) {
	p := Prefetch(NewServer(defaultServer()))
	if again := Prefetch(p); again != p {
		t.Error("Prefetch of a *Prefetched must return it unchanged")
	}
	var in Instr
	for i := 0; i < 100; i++ {
		if !p.Next(&in) {
			t.Fatal("infinite stream ended")
		}
	}
	for i := 0; i < 3; i++ {
		if err := p.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
}

// decoderGoroutines counts the live goroutines running a decode-ahead
// producer loop.
func decoderGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "workload.(*Prefetched).decode(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestPrefetchedCloseStopsDecoder checks that Close releases the decoder
// of an endless stream the consumer abandoned mid-flight: with the ring
// full, the producer is parked on a send, and only its select on the stop
// channel lets it exit. A leaked decoder would pin its source and buffers
// for the rest of the process.
func TestPrefetchedCloseStopsDecoder(t *testing.T) {
	before := decoderGoroutines()
	spec, err := NewCatalog(1, 0).Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	p := Prefetch(spec.NewStream())
	var in Instr
	if !p.Next(&in) {
		t.Fatal("endless stream ended")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := decoderGoroutines()
		if n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d decoder goroutines 2s after Close, want %d", n, before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
