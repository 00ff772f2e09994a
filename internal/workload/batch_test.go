package workload

import (
	"errors"
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

// TestPrefetchedCloseStopsDecoder checks that Close stops the decoder of
// an endless stream the consumer abandoned mid-flight before it returns,
// whether the decoder is filling a batch or parked on a send to the full
// ring. A leaked decoder would pin its source for the rest of the process.
func TestPrefetchedCloseStopsDecoder(t *testing.T) {
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
	// done is closed by the decoder's last statement.
	select {
	case <-p.done:
	default:
		t.Fatal("the decoder was still running when Close returned")
	}
}

// ringSource is an endless in-memory source that reports the fill of the
// last batch a ring can take: started closes when it begins, the fill
// waits for hold, and filled closes when it is done.
type ringSource struct {
	calls                 int
	started, hold, filled chan struct{}
}

func newRingSource() *ringSource {
	return &ringSource{started: make(chan struct{}), hold: make(chan struct{}), filled: make(chan struct{})}
}

func (r *ringSource) Next(in *Instr) bool {
	*in = Instr{PC: 0x400000}
	return true
}

func (r *ringSource) NextBatch(buf []Instr) int {
	r.calls++
	if r.calls == ringBatches {
		close(r.started)
		<-r.hold
	}
	for i := range buf {
		buf[i] = Instr{PC: 0x400000 + arch.Addr(i)*4}
	}
	if r.calls == ringBatches {
		close(r.filled)
	}
	return len(buf)
}

func (*ringSource) inMemory() bool { return true }

// TestPrefetchedCloseReturnsEveryBatch: a ring closed mid-stream has put
// every batch it took back in the pool by the time Close returns. The
// consumer holds one batch and PrefetchDepth are queued, so the decoder
// takes its last batch; Close finds it parked on the send of that batch,
// or still filling it. Before rings owned their batches, the decoder
// dropped the batch in hand when it saw Close.
func TestPrefetchedCloseReturnsEveryBatch(t *testing.T) {
	for _, midFill := range []bool{false, true} {
		name := "parked on a send"
		if midFill {
			name = "mid-fill"
		}
		t.Run(name, func(t *testing.T) {
			src := newRingSource()
			if !midFill {
				close(src.hold)
			}
			p := Prefetch(src)
			var in Instr
			if !p.Next(&in) {
				t.Fatal("endless stream ended")
			}
			if midFill {
				<-src.started
				// Release the fill only once Close has begun.
				go func() {
					<-p.stop
					close(src.hold)
				}()
			} else {
				<-src.filled
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			if src.calls != ringBatches {
				t.Errorf("decoder filled %d batches, want %d", src.calls, ringBatches)
			}
			if p.owned != 0 {
				t.Errorf("%d of the ring's %d batches not back in the pool after Close", p.owned, src.calls)
			}
		})
	}
}

// signalAfter is an endless source that closes reached when it yields its
// n-th instruction.
type signalAfter struct {
	n       int
	reached chan struct{}
}

func (s *signalAfter) Next(in *Instr) bool {
	if s.n--; s.n == 0 {
		close(s.reached)
	}
	*in = Instr{PC: 0x400000}
	return true
}

// TestPrefetchedCloseDoesNotWaitForStall: Close on a ring whose decoder is
// blocked inside a stalled source returns without waiting for it, and
// returns every batch but the one the decoder fills. The decoder exits
// once the stall is released.
func TestPrefetchedCloseDoesNotWaitForStall(t *testing.T) {
	const after = 2*BatchSize + 100 // inside the third batch
	reached := make(chan struct{})
	stall := NewStallStream(&signalAfter{n: after, reached: reached}, after, 5*time.Second)
	p := Prefetch(stall)
	var in Instr
	if !p.Next(&in) {
		t.Fatal("stream ended before its stall")
	}
	// The decoder is filling the third batch, and its next call into the
	// source stalls.
	<-reached
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.done:
		t.Fatal("Close waited for a decoder blocked inside its source")
	default:
	}
	if p.owned != 1 {
		t.Errorf("ring still owns %d batches after Close, want the 1 its stalled decoder fills", p.owned)
	}
	stall.Release()
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		t.Fatal("decoder still running 5s after its stall was released")
	}
}
