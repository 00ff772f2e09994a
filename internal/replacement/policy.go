// Package replacement implements cache replacement policies: the
// translation-oblivious baselines (LRU, Random, SRRIP, BRRIP, DRRIP, SHiP,
// Mockingjay) and the translation-aware prior work the paper compares
// against (PTP, T-DRRIP). The paper's own xPTP policy lives in
// internal/core next to iTP, but implements the same Policy interface.
package replacement

import (
	"fmt"

	"itpsim/internal/arch"
)

// NoTag marks an empty way in Set.Tags. Tags are block numbers (an
// address shifted right by arch.BlockBits) held in 32 bits: every block
// of arch.PhysMemBytes of physical memory numbers below NoTag.
const NoTag = ^uint32(0)

// Line is the per-block metadata a policy can observe and annotate. A
// block's tag and recency position live in the Set's own arrays, and
// per-way state only some policies keep (SHiP's and Hawkeye's PC
// signature, Mockingjay's ETA) lives in Set columns those policies ask
// for; policies mutate only the policy-state fields. The booleans pack
// into one flags byte behind accessors, so a Line is 8 bytes.
type Line struct {
	PC uint32 // program counter of the filling access, below arch.PCLimit

	Kind   arch.Kind
	Thread uint8

	// Policy-owned state.
	RRPV uint8 // re-reference prediction value (RRIP family)

	flags uint8 // flagDirty | flagPTE | ...; the cache sets all but flagReused
}

// Bits of Line.flags.
const (
	flagDirty uint8 = 1 << iota
	// flagPTE marks blocks holding page-table payload; flagDataPTE
	// additionally marks PTEs serving data translations (the xPTP Type
	// bit, propagated through the MSHR as in Figure 7).
	flagPTE
	flagDataPTE
	// flagSTLBMiss marks demand blocks whose triggering access missed the
	// STLB (T-DRRIP's eviction bias).
	flagSTLBMiss
	// flagPrefetched marks blocks filled by a prefetcher and not yet
	// demanded.
	flagPrefetched
	// flagReused marks blocks hit since their fill (SHiP training,
	// Emissary); unlike the others it is policy-owned.
	flagReused
)

// Dirty reports whether the block was written since its fill.
func (l *Line) Dirty() bool { return l.flags&flagDirty != 0 }

// IsPTE reports whether the block holds page-table payload.
func (l *Line) IsPTE() bool { return l.flags&flagPTE != 0 }

// IsDataPTE reports whether the block holds a PTE serving a data
// translation: xPTP's Type bit.
func (l *Line) IsDataPTE() bool { return l.flags&flagDataPTE != 0 }

// STLBMiss reports whether the demand access that filled the block
// missed the STLB.
func (l *Line) STLBMiss() bool { return l.flags&flagSTLBMiss != 0 }

// Prefetched reports whether a prefetcher filled the block and no demand
// access has touched it since.
func (l *Line) Prefetched() bool { return l.flags&flagPrefetched != 0 }

// Reused reports whether the block was hit since its fill.
func (l *Line) Reused() bool { return l.flags&flagReused != 0 }

// SetDirty sets or clears the Dirty flag.
func (l *Line) SetDirty(v bool) { l.setFlag(flagDirty, v) }

// SetPTE sets or clears the IsPTE flag.
func (l *Line) SetPTE(v bool) { l.setFlag(flagPTE, v) }

// SetDataPTE sets or clears the IsDataPTE flag.
func (l *Line) SetDataPTE(v bool) { l.setFlag(flagDataPTE, v) }

// SetSTLBMiss sets or clears the STLBMiss flag.
func (l *Line) SetSTLBMiss(v bool) { l.setFlag(flagSTLBMiss, v) }

// SetPrefetched sets or clears the Prefetched flag.
func (l *Line) SetPrefetched(v bool) { l.setFlag(flagPrefetched, v) }

// SetReused sets or clears the Reused flag.
func (l *Line) SetReused(v bool) { l.setFlag(flagReused, v) }

func (l *Line) setFlag(bit uint8, v bool) {
	if v {
		l.flags |= bit
	} else {
		l.flags &^= bit
	}
}

// Set is a policy's view of one cache set. Way w holds block Tags[w]
// (NoTag when the way is empty) at exact recency-stack position Stack[w]
// (0 = MRU), with metadata Lines[w]. Sigs and ETAs are per-way columns
// a cache allocates only for a policy whose Columns names them, and are
// nil otherwise. Every non-nil slice has one entry per way. A cache
// keeps every set's entries in flat arrays and points one Set at
// whichever set an access touches, so these slices are the only copy of
// the set's state.
type Set struct {
	Tags  []uint32
	Stack []uint8
	Lines []Line
	// Sigs holds each way's PC signature (SHiP, T-SHiP, Hawkeye,
	// Mockingjay).
	Sigs []uint16
	// ETAs holds each way's estimated time of next access (Mockingjay).
	ETAs []uint64
}

// Columns is a set of per-way state columns a policy keeps beside the
// lines.
type Columns uint8

// The per-way columns of a Set.
const (
	SigColumn Columns = 1 << iota // Set.Sigs
	ETAColumn                     // Set.ETAs
)

// Columnar is implemented by a policy that keeps per-way state in Set
// columns. A cache allocates exactly the columns Columns names, and a
// policy must write a column's entry for every way it fills: the cache
// does not reset columns on a fill.
type Columnar interface {
	Columns() Columns
}

// ColumnsOf returns the columns policy p keeps: none unless it is
// Columnar.
func ColumnsOf(p Policy) Columns {
	if c, ok := p.(Columnar); ok {
		return c.Columns()
	}
	return 0
}

// Valid reports whether way w holds a block.
func (s *Set) Valid(w int) bool { return s.Tags[w] != NoTag }

// Policy decides victims and maintains per-line replacement state.
// Victim returns the way to evict (the caller guarantees the set is full
// of valid lines when no invalid way exists). OnFill runs after the new
// block's tag and line fields are written; OnHit runs on every demand
// hit; OnEvict runs just before a valid line is overwritten, so policies
// can train on dead blocks. The Set is valid only for the duration of
// the call: policies must not retain it.
type Policy interface {
	Name() string
	Victim(setIdx int, set *Set, in *arch.Access) int
	OnFill(setIdx int, set *Set, way int, in *arch.Access)
	OnHit(setIdx int, set *Set, way int, in *arch.Access)
	OnEvict(setIdx int, set *Set, way int)
}

// InitSet empties a set: every tag becomes NoTag and the stack positions
// become the identity permutation 0..ways-1.
func InitSet(s *Set) {
	for w := range s.Tags {
		s.Tags[w] = NoTag
	}
	InitStack(s.Stack)
}

// InvalidWay returns the index of an empty way with the deepest stack
// position, or -1 if the set is full.
func InvalidWay(s *Set) int {
	best, bestStack := -1, -1
	for w, tag := range s.Tags {
		if tag == NoTag && int(s.Stack[w]) > bestStack {
			best, bestStack = w, int(s.Stack[w])
		}
	}
	return best
}

// StackLRUVictim returns the way at the bottom of the recency stack
// (position ways-1), preferring invalid ways.
func StackLRUVictim(s *Set) int {
	if w := InvalidWay(s); w >= 0 {
		return w
	}
	return StackPosOf(s.Stack, len(s.Stack)-1)
}

// FromName constructs a named baseline policy sized for a cache with the
// given geometry. The paper's own policies ("xptp", "itp") are built in
// internal/core and are not available here.
func FromName(name string, sets, ways int, seed uint64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(), nil
	case "random":
		return NewRandom(seed), nil
	case "srrip":
		return NewSRRIP(), nil
	case "brrip":
		return NewBRRIP(seed), nil
	case "drrip":
		return NewDRRIP(sets, seed), nil
	case "ship":
		return NewSHiP(sets, seed), nil
	case "mockingjay":
		return NewMockingjay(sets, ways), nil
	case "hawkeye":
		return NewHawkeye(sets, ways), nil
	case "ptp":
		return NewPTP(), nil
	case "tdrrip":
		return NewTDRRIP(sets, seed), nil
	case "tship":
		return NewTSHiP(sets, seed), nil
	case "emissary":
		return NewEmissary(), nil
	default:
		return nil, fmt.Errorf("replacement: unknown policy %q", name)
	}
}

// xorshift64 is the tiny deterministic PRNG used by stochastic policies.
type xorshift64 uint64

func newXorshift(seed uint64) xorshift64 {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return xorshift64(seed)
}

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}
