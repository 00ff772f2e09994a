package workload

// Stream splitting: the substrate of sharded simulation (internal/shard).
// A sharded run positions K streams at staggered offsets of the same
// serial instruction sequence; the only sound way to do that for a
// stateful generator is to replay its state, not its output. Cloner
// deep-copies a generator mid-flight so one forward pass over the serial
// stream can snapshot every shard's start position; Skip is the
// advance-and-discard fallback (and the positioning primitive the pass
// itself uses). Both are cold paths — positioning happens once per shard,
// not per instruction.

// Cloner is implemented by streams whose complete generator state can be
// deep-copied. A clone must produce exactly the same future instruction
// sequence as its source, and consuming either stream must not perturb
// the other. Wrappers whose inner stream is not clonable return nil.
type Cloner interface {
	Clone() Stream
}

// CloneStream deep-copies s when it supports cloning; ok is false when it
// does not (including a wrapper over a non-clonable inner stream).
func CloneStream(s Stream) (Stream, bool) {
	c, isCloner := s.(Cloner)
	if !isCloner {
		return nil, false
	}
	out := c.Clone()
	return out, out != nil
}

// Skip advances s by n instructions, discarding them, and returns how
// many were actually consumed (short only when the stream ended).
func Skip(s Stream, n uint64) uint64 {
	return Pull(s, n, func([]Instr) bool { return true })
}

// Pull draws up to n instructions from s and hands them to f one segment
// at a time. Over a decode-ahead ring a segment is the unread part of the
// ring's current batch, in place. Over any other stream it is a batch
// borrowed from the rings' pool, filled through the stream's bulk path
// when it has one, so Pull runs at generator speed, not at
// interface-call speed. It stops early when the stream ends or f returns
// false, and returns how many instructions f was handed. A segment is
// valid only until f returns.
func Pull(s Stream, n uint64, f func([]Instr) bool) uint64 {
	ring, isRing := s.(*Prefetched)
	var b *instrBatch
	if !isRing && n > 0 {
		b = takeBatch()
		defer batchPool.Put(BatchSize, b)
	}
	bulk, hasBulk := s.(NextBatcher)
	var done uint64
	for done < n {
		want := int(min(n-done, BatchSize))
		var seg []Instr
		switch {
		case isRing:
			seg = ring.segment(want)
		case hasBulk:
			seg = b.buf[:bulk.NextBatch(b.buf[:want])]
		default:
			seg = b.buf[:FillBatch(s, b.buf[:want])]
		}
		done += uint64(len(seg))
		if len(seg) == 0 || !f(seg) {
			break
		}
	}
	return done
}

// Clone implements Cloner. The rng and the call stack are the only
// mutable pointer/slice state; the zipf samplers are immutable after
// construction and safely shared (segZipf is created lazily, but a nil
// copy re-creates it identically from the shared rng-derived state).
func (s *server) Clone() Stream {
	c := *s
	r := *s.r
	c.r = &r
	c.callStack = make([]int, len(s.callStack), cap(s.callStack))
	copy(c.callStack, s.callStack)
	return &c
}

// Clone implements Cloner; the dZipf sampler is immutable and shared.
func (s *spec) Clone() Stream {
	c := *s
	r := *s.r
	c.r = &r
	return &c
}

// Clone implements Cloner when the wrapped stream does.
func (l *limited) Clone() Stream {
	inner, ok := CloneStream(l.s)
	if !ok {
		return nil
	}
	return Limit(inner, l.left)
}

// Clone implements Cloner; the recorded instructions are read-only and
// shared between the copies.
func (r *Replay) Clone() Stream {
	c := *r
	return &c
}
