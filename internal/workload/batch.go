// Decode-ahead ingestion: a background goroutine pulls instructions from
// any Stream (a gzip trace decoder, a synthetic generator) into recycled
// fixed-size batches that flow to the simulator through a channel ring, so
// decode/generation overlaps simulation and the consumer's refills are
// bulk copies instead of per-instruction virtual calls.
package workload

import (
	"sync"
	"sync/atomic"

	"itpsim/internal/pool"
)

// NextBatcher is the bulk-pull fast path next to Stream: NextBatch fills
// up to len(buf) instructions and returns how many it produced. A return
// of 0 means the stream has ended; a short non-zero count does NOT imply
// the end (a batched source returns whatever its current chunk holds).
// Consumers must keep calling until 0.
type NextBatcher interface {
	NextBatch(buf []Instr) int
}

// FillBatch pulls up to len(buf) instructions from s one at a time — the
// generic NextBatch for sources without a native bulk path.
func FillBatch(s Stream, buf []Instr) int {
	for i := range buf {
		if !s.Next(&buf[i]) {
			return i
		}
	}
	return len(buf)
}

// Batch geometry: BatchSize instructions per chunk, PrefetchDepth chunks
// in flight. Sized so a run keeps a few hundred KB of decoded
// instructions buffered — enough to ride out decode jitter without
// letting the decoder race far past the simulator (watchdog
// forward-progress accounting stays meaningful).
const (
	BatchSize     = 1024
	PrefetchDepth = 4
)

// ringBatches is the most batches one ring owns: PrefetchDepth queued,
// one the consumer reads and one the decoder fills. The decoder takes a
// batch from batchPool only while none waits in its free ring, and then
// every other batch it owns is queued or read, so it never takes more.
const ringBatches = PrefetchDepth + 2

// Prefetched runs its source stream on a background goroutine, feeding
// the consumer through a ring of recycled instruction batches. It
// implements Stream and NextBatcher; the consumer side is single-threaded
// (the simulator's run loop).
//
// Failure semantics mirror direct consumption:
//   - a source panic is captured and re-raised on the consumer goroutine
//     once everything decoded before it has been consumed (exactly at the
//     panicking instruction for plain Stream sources; a panic inside a
//     bulk NextBatch can lose at most its own partial batch);
//   - a source terminal error (errStream-style Err) surfaces via Err only
//     once the consumer has drained everything decoded before it;
//   - a source that blocks in Next (a hung trace pipe) blocks the
//     consumer once the buffered batches run dry — the same stalled-run
//     signature the harness watchdog detects.
type Prefetched struct {
	src  Stream
	bulk NextBatcher // non-nil when src has a native bulk path
	// inMemory: no call into src can hang, so Close waits out a fill.
	inMemory bool

	batches chan *instrBatch
	// free holds the batches the consumer has read, for the decoder to
	// refill. Its capacity is ringBatches, every batch the ring can own,
	// so a send to it never blocks.
	free chan *instrBatch
	stop chan struct{}
	done chan struct{} // closed when the decoder exits

	// state tells Close whether it may wait for the decoder: decoderIn
	// while the decoder fills a batch from a source that may block. Close
	// swaps in decoderStopped, and the decoder changes state only by
	// compare-and-swap, so either Close reads decoderIn and does not wait,
	// or the decoder's next swap fails and it stops.
	state atomic.Int32
	// owned counts the batches the ring took from batchPool and has not
	// put back: the decoder adds each it takes, Close subtracts each it
	// returns. After Close it is 0, or 1 when the decoder was inside a
	// source that may block.
	owned int

	// Decoder-side state, published to the consumer by the close of
	// batches (channel close is the happens-before edge).
	srcErr   error
	panicVal any

	// Consumer-side state.
	cur       *instrBatch
	pos       int
	err       error
	closeOnce sync.Once
}

// Decoder states (Prefetched.state).
const (
	decoderOut     int32 = iota // outside the source: parked or between fills
	decoderIn                   // filling from a source that may block
	decoderStopped              // Close has run
)

// inMemory reports whether every call into s computes from state s holds,
// so that it returns without waiting on anything outside the process:
// true for the package's generators and Replay, and for Limit over one of
// them. Any other source, such as a trace read from a pipe, may hang.
func inMemory(s Stream) bool {
	m, ok := s.(interface{ inMemory() bool })
	return ok && m.inMemory()
}

type instrBatch struct {
	buf []Instr
	n   int
}

// batchPool is the one batch pool every decode-ahead ring draws from, so
// a ring started after another closed reuses its batches; Pull over any
// other stream borrows its buffer from it too. Every batch is BatchSize
// long and goes under that key. Only Close puts a ring's batches back,
// before it returns: a decoder that outlived Close and put its batch
// back itself would land it in the pool after the caller's run had
// finished and been measured.
var batchPool pool.Keyed[*instrBatch]

// takeBatch takes a batch from batchPool, or makes one when it is empty.
func takeBatch() *instrBatch {
	if b, ok := batchPool.Get(BatchSize); ok {
		return b
	}
	return &instrBatch{buf: make([]Instr, BatchSize)}
}

// Prefetch wraps s in a decode-ahead pipeline and starts its background
// decoder. The caller owns the result and should Close it when the run is
// over (Close is idempotent); an already-prefetched stream is returned
// unchanged.
func Prefetch(s Stream) *Prefetched {
	if p, ok := s.(*Prefetched); ok {
		return p
	}
	p := &Prefetched{
		src:      s,
		inMemory: inMemory(s),
		batches:  make(chan *instrBatch, PrefetchDepth),
		free:     make(chan *instrBatch, ringBatches),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	p.bulk, _ = s.(NextBatcher)
	// Ownership handoff: p's source and ring buffers transfer to the
	// decode goroutine here; the constructor's caller only ever touches
	// them again through Next/Close, which synchronise on the channels.
	go p.decode()
	return p
}

// decode is the background producer loop. Every batch it holds when it
// stops goes back through free, for Close to return to the pool, except
// one filled from a source Close did not wait for.
func (p *Prefetched) decode() {
	defer close(p.done)
	defer close(p.batches)
	for {
		b := p.getBatch()
		if !p.enter() {
			p.free <- b
			return
		}
		ended := p.fillBatch(b)
		if !p.leave() {
			// Close returned without waiting: the batch goes with the
			// decoder.
			return
		}
		if ended && p.panicVal == nil {
			// Record the source's terminal error before the channel close
			// publishes it to the consumer.
			if es, ok := p.src.(interface{ Err() error }); ok {
				p.srcErr = es.Err()
			}
		}
		if b.n == 0 {
			// The stream ended on a batch boundary.
			p.free <- b
			return
		}
		select {
		case p.batches <- b:
		case <-p.stop:
			p.free <- b
			return
		}
		if ended {
			return
		}
	}
}

// enter reports whether the decoder may fill another batch: false once
// Close has begun. For a source that may block it also marks the decoder
// as inside the source, so Close does not wait on a call that may hang.
func (p *Prefetched) enter() bool {
	if p.inMemory {
		return p.state.Load() != decoderStopped
	}
	return p.state.CompareAndSwap(decoderOut, decoderIn)
}

// leave marks the decoder outside the source again. It reports false when
// Close ran while the decoder was inside and so did not wait for it.
func (p *Prefetched) leave() bool {
	return p.inMemory || p.state.CompareAndSwap(decoderIn, decoderOut)
}

// fillBatch decodes one batch, reporting whether the stream ended. The
// generic path records progress in b.n per instruction, so a source panic
// (captured here, re-raised on the consumer) still delivers everything
// decoded before it; a panic inside a bulk NextBatch can lose at most its
// own partial batch.
func (p *Prefetched) fillBatch(b *instrBatch) (ended bool) {
	b.n = 0
	defer func() {
		if r := recover(); r != nil {
			p.panicVal = r
			ended = true
		}
	}()
	if p.bulk != nil {
		// Per the NextBatcher contract only a zero batch ends the stream;
		// short non-zero batches flow through and the next call returns 0.
		b.n = p.bulk.NextBatch(b.buf)
		return b.n == 0
	}
	for i := range b.buf {
		if !p.src.Next(&b.buf[i]) {
			return true
		}
		b.n = i + 1
	}
	return false
}

// getBatch takes back a batch the consumer has read, or a new one from
// batchPool when none is waiting.
func (p *Prefetched) getBatch() *instrBatch {
	select {
	case b := <-p.free:
		return b
	default:
		p.owned++
		return takeBatch()
	}
}

// advance makes the next decoded batch current; it reports false at the
// end of the stream (after re-raising a captured source panic, if any).
func (p *Prefetched) advance() bool {
	if p.cur != nil {
		p.free <- p.cur
		p.cur = nil
		p.pos = 0
	}
	b, ok := <-p.batches
	if !ok {
		if p.panicVal != nil {
			v := p.panicVal
			p.panicVal = nil
			panic(v)
		}
		p.err = p.srcErr
		return false
	}
	p.cur = b
	return true
}

// Next implements Stream.
func (p *Prefetched) Next(in *Instr) bool {
	seg := p.segment(1)
	if len(seg) == 0 {
		return false
	}
	*in = seg[0]
	return true
}

// NextBatch implements NextBatcher: it copies out of the current decoded
// chunk (never blocking on more than one chunk boundary).
func (p *Prefetched) NextBatch(buf []Instr) int {
	return copy(buf, p.segment(len(buf)))
}

// segment marks up to limit unread instructions of the current decoded
// chunk read and returns them in place, valid until the consumer next
// reads from p. It is empty at the end of the stream.
func (p *Prefetched) segment(limit int) []Instr {
	for p.cur == nil || p.pos >= p.cur.n {
		if !p.advance() {
			return nil
		}
	}
	seg := p.cur.buf[p.pos:min(p.cur.n, p.pos+limit)]
	p.pos += len(seg)
	return seg
}

// Err reports the source's terminal error once the consumer has drained
// the stream to that point; a consumer that stopped early (instruction
// budget reached) never observes errors beyond what it consumed, matching
// direct Stream use.
func (p *Prefetched) Err() error { return p.err }

// Close stops the background decoder and puts every batch the ring owns
// back in the shared pool before it returns. It waits for the decoder to
// exit, which takes at most the rest of one batch fill, unless the decoder
// is inside a fill from a source that may block (see inMemory): a hung
// pipe keeps its goroutine and the one batch it fills, just as it would
// keep a direct consumer, and the decoder exits once the source returns.
// Close is idempotent and safe after the consumer stops pulling, and must
// be called from the consumer's goroutine; nothing may be read from p
// afterwards.
func (p *Prefetched) Close() error {
	p.closeOnce.Do(p.shutdown)
	return nil
}

// shutdown is Close's body.
func (p *Prefetched) shutdown() {
	filling := p.state.Swap(decoderStopped) == decoderIn
	close(p.stop)
	if !filling {
		<-p.done
	}
	if p.cur != nil {
		p.release(p.cur)
		p.cur, p.pos = nil, 0
	}
	for drained := false; !drained; {
		select {
		case b := <-p.free:
			p.release(b)
		default:
			drained = true
		}
	}
	for {
		select {
		case b, ok := <-p.batches:
			if !ok {
				return
			}
			p.release(b)
		default:
			return
		}
	}
}

// release puts one of the ring's batches back in batchPool.
func (p *Prefetched) release(b *instrBatch) {
	p.owned--
	batchPool.Put(BatchSize, b)
}
