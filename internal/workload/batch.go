// Decode-ahead ingestion: a background goroutine pulls instructions from
// any Stream (a gzip trace decoder, a synthetic generator) into recycled
// fixed-size batches that flow to the simulator through a channel ring, so
// decode/generation overlaps simulation and the consumer's refills are
// bulk copies instead of per-instruction virtual calls.
package workload

import (
	"sync"

	"itpsim/internal/pool"
)

// NextBatcher is the bulk-pull fast path next to Stream: NextBatch fills
// up to len(buf) instructions and returns how many it produced. A return
// of 0 means the stream has ended; a short non-zero count does NOT imply
// the end (a batched source returns whatever its current chunk holds).
// Consumers must keep calling until 0.
type NextBatcher interface {
	//itp:hotpath
	NextBatch(buf []Instr) int
}

// FillBatch pulls up to len(buf) instructions from s one at a time — the
// generic NextBatch for sources without a native bulk path.
//
//itp:hotpath
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

	batches chan *instrBatch
	free    chan *instrBatch
	stop    chan struct{}

	// Decoder-side state, published to the consumer by the close of
	// batches (channel close is the happens-before edge).
	srcErr   error
	panicVal any

	// Consumer-side state.
	cur      *instrBatch
	pos      int
	err      error
	stopOnce sync.Once
}

type instrBatch struct {
	buf []Instr
	n   int
}

// batchPool is the one batch pool every decode-ahead ring draws from, so
// a ring started after another closed reuses its batches; Skip borrows
// its buffer from it too. Every batch is BatchSize long and goes under
// that key. Only the consumer side puts batches back, on its own
// goroutine (putBatch and Close): the decoder may outlive Close, and a
// batch it returned late could land after the caller's run has finished.
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
// over (Close is cheap and idempotent); an already-prefetched stream is
// returned unchanged.
func Prefetch(s Stream) *Prefetched {
	if p, ok := s.(*Prefetched); ok {
		return p
	}
	p := &Prefetched{
		src:     s,
		batches: make(chan *instrBatch, PrefetchDepth),
		free:    make(chan *instrBatch, PrefetchDepth+1),
		stop:    make(chan struct{}),
	}
	p.bulk, _ = s.(NextBatcher)
	// Ownership handoff: p's source and ring buffers transfer to the
	// decode goroutine here; the constructor's caller only ever touches
	// them again through Next/Stop, which synchronise on the channels.
	go p.decode()
	return p
}

// decode is the background producer loop.
func (p *Prefetched) decode() {
	defer close(p.batches)
	for {
		// Close drains the queue, which may free a parked send; stop
		// here rather than decode into batches nobody will read.
		select {
		case <-p.stop:
			return
		default:
		}
		b := p.getBatch()
		ended := p.fillBatch(b)
		if ended && p.panicVal == nil {
			// Record the source's terminal error before the channel close
			// publishes it to the consumer.
			if es, ok := p.src.(interface{ Err() error }); ok {
				p.srcErr = es.Err()
			}
		}
		if b.n > 0 {
			select {
			case p.batches <- b:
			case <-p.stop:
				return
			}
		} else {
			// Back to the ring only: an empty batch at the end of the
			// stream is left for Close (or the collector), never put in
			// the pool from here.
			select {
			case p.free <- b:
			default:
			}
		}
		if ended {
			return
		}
	}
}

// fillBatch decodes one batch, reporting whether the stream ended. The
// generic path records progress in b.n per instruction, so a source panic
// (captured here, re-raised on the consumer) still delivers everything
// decoded before it; a panic inside a bulk NextBatch can lose at most its
// own partial batch.
func (p *Prefetched) fillBatch(b *instrBatch) (ended bool) {
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

// getBatch recycles a consumed chunk or falls back to the pool.
func (p *Prefetched) getBatch() *instrBatch {
	select {
	case b := <-p.free:
		return b
	default:
		b := takeBatch()
		b.n = 0
		return b
	}
}

// putBatch returns a consumed chunk to the recycle ring (the pool when
// the ring is momentarily full). Consumer side only.
func (p *Prefetched) putBatch(b *instrBatch) {
	b.n = 0
	select {
	case p.free <- b:
	default:
		batchPool.Put(BatchSize, b)
	}
}

// advance makes the next decoded batch current; it reports false at the
// end of the stream (after re-raising a captured source panic, if any).
func (p *Prefetched) advance() bool {
	if p.cur != nil {
		p.putBatch(p.cur)
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
	for p.cur == nil || p.pos >= p.cur.n {
		if !p.advance() {
			return false
		}
	}
	*in = p.cur.buf[p.pos]
	p.pos++
	return true
}

// NextBatch implements NextBatcher: it copies out of the current decoded
// chunk (never blocking on more than one chunk boundary).
func (p *Prefetched) NextBatch(buf []Instr) int {
	for p.cur == nil || p.pos >= p.cur.n {
		if !p.advance() {
			return 0
		}
	}
	n := copy(buf, p.cur.buf[p.pos:p.cur.n])
	p.pos += n
	return n
}

// Err reports the source's terminal error once the consumer has drained
// the stream to that point; a consumer that stopped early (instruction
// budget reached) never observes errors beyond what it consumed, matching
// direct Stream use.
func (p *Prefetched) Err() error { return p.err }

// Close stops the background decoder. It does not wait for a decoder
// blocked inside the source's Next (a hung pipe keeps its goroutine, just
// as it would keep a direct consumer); in every other state the decoder
// exits promptly. Close is idempotent and safe after the consumer stops
// pulling, and must be called from the consumer's goroutine: it returns
// the current batch, the recycle ring and the decoded batches still
// queued to the shared pool, so nothing may be read from p afterwards.
func (p *Prefetched) Close() error {
	p.stopOnce.Do(func() { close(p.stop) })
	if p.cur != nil {
		batchPool.Put(BatchSize, p.cur)
		p.cur, p.pos = nil, 0
	}
	for drained := false; !drained; {
		select {
		case b := <-p.free:
			batchPool.Put(BatchSize, b)
		default:
			drained = true
		}
	}
	for {
		select {
		case b, ok := <-p.batches:
			if !ok {
				return nil
			}
			batchPool.Put(BatchSize, b)
		default:
			return nil
		}
	}
}
