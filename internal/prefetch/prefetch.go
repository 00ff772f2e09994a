// Package prefetch implements the hardware prefetchers of Table 1: a
// next-line prefetcher (L1D) and a PC-indexed stride prefetcher (L2C).
// The FDIP-style fetch-directed instruction prefetcher lives in
// internal/sim because it runs off the decoupled front-end's FTQ rather
// than off cache accesses.
package prefetch

import (
	"itpsim/internal/arch"
	"itpsim/internal/pool"
)

// Prefetcher observes demand accesses and proposes block-aligned
// prefetch addresses.
type Prefetcher interface {
	Name() string
	// Train observes one demand access and returns the (possibly empty)
	// list of block addresses to prefetch. The returned slice is only
	// valid until the next Train call — implementations reuse it to keep
	// the access path allocation-free.
	Train(acc *arch.Access) []arch.Addr
}

// NextLine prefetches the sequentially next block on every demand access.
type NextLine struct {
	buf [1]arch.Addr
}

// NewNextLine returns a next-line prefetcher.
func NewNextLine() *NextLine { return &NextLine{} }

// Name implements Prefetcher.
func (*NextLine) Name() string { return "next-line" }

// Train implements Prefetcher.
func (n *NextLine) Train(acc *arch.Access) []arch.Addr {
	n.buf[0] = arch.BlockAddr(acc.Addr) + arch.BlockSize
	return n.buf[:]
}

// strideEntry is one row of the stride table.
type strideEntry struct {
	tag        uint64
	lastAddr   arch.Addr
	stride     int64
	confidence int8
}

// Stride is a PC-indexed stride prefetcher with confidence counters: two
// consecutive accesses from the same PC with the same block stride arm
// it, after which it issues `degree` prefetches down the detected stride.
type Stride struct {
	table  []strideEntry
	mask   uint64
	degree int
	buf    []arch.Addr
	// store owns table; Release hands it back to tables.
	store *strideTable
}

// strideTable is the storage of one stride table. It outlives its
// prefetcher: Release returns it to tables under its row count.
type strideTable struct{ rows []strideEntry }

// tables recycles released stride tables, keyed by row count.
var tables pool.Keyed[*strideTable]

// NewStride returns a stride prefetcher with the given table size
// (rounded up to a power of two) and prefetch degree. Its table comes
// from the pool when a released prefetcher of that size left one there,
// and is cleared either way.
func NewStride(tableSize, degree int) *Stride {
	size := 1
	for size < tableSize {
		size <<= 1
	}
	st, ok := tables.Get(size)
	if !ok {
		st = &strideTable{rows: make([]strideEntry, size)}
	} else {
		clear(st.rows)
	}
	return &Stride{
		table:  st.rows,
		mask:   uint64(size - 1),
		degree: degree,
		buf:    make([]arch.Addr, 0, degree),
		store:  st,
	}
}

// Release returns the table to the pool. The prefetcher must not be
// trained afterwards, and panics if it is. Release is idempotent.
func (s *Stride) Release() {
	if s.store == nil {
		return
	}
	tables.Put(len(s.store.rows), s.store)
	s.store, s.table = nil, nil
}

// Name implements Prefetcher.
func (*Stride) Name() string { return "stride" }

// Train implements Prefetcher.
func (s *Stride) Train(acc *arch.Access) []arch.Addr {
	idx := ((acc.PC >> 2) ^ (acc.PC >> 10)) & s.mask
	e := &s.table[idx]
	blk := int64(arch.BlockNumber(acc.Addr))
	s.buf = s.buf[:0]
	if e.tag != acc.PC {
		*e = strideEntry{tag: acc.PC, lastAddr: acc.Addr}
		return nil
	}
	stride := blk - int64(arch.BlockNumber(e.lastAddr))
	if stride == 0 {
		return nil // same block; no training signal
	}
	if stride == e.stride {
		if e.confidence < 3 {
			e.confidence++
		}
	} else {
		e.stride = stride
		e.confidence = 0
	}
	e.lastAddr = acc.Addr
	if e.confidence >= 1 {
		for i := 1; i <= s.degree; i++ {
			next := blk + int64(i)*e.stride
			if next <= 0 {
				break
			}
			// buf is pre-sized to degree, so append never grows it.
			s.buf = append(s.buf, arch.Addr(next)<<arch.BlockBits)
		}
	}
	return s.buf
}
