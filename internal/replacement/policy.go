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
// address shifted right by arch.BlockBits), so no block can equal it.
const NoTag = ^uint64(0)

// Line is the per-block metadata a policy can observe and annotate. A
// block's tag and recency position live in the Set's own arrays; policies
// mutate only the policy-state fields. Fields run widest first, so a Line
// packs into 32 bytes.
type Line struct {
	PC  uint64 // program counter of the filling access
	ETA uint64 // estimated time of next access (Mockingjay, policy-owned)
	Sig uint16 // PC signature (SHiP, Mockingjay, policy-owned)

	Dirty bool
	Kind  arch.Kind
	// IsPTE marks blocks holding page-table payload; IsDataPTE
	// additionally marks PTEs serving data translations (the xPTP Type
	// bit, propagated through the MSHR as in Figure 7).
	IsPTE     bool
	IsDataPTE bool
	// STLBMiss marks demand blocks whose triggering access missed the
	// STLB (T-DRRIP's eviction bias).
	STLBMiss bool
	Thread   uint8
	// Prefetched marks blocks filled by a prefetcher and not yet
	// demanded.
	Prefetched bool

	// Policy-owned state.
	RRPV   uint8 // re-reference prediction value (RRIP family)
	Reused bool  // block was hit since fill (SHiP training)
}

// Set is a policy's view of one cache set. Way w holds block Tags[w]
// (NoTag when the way is empty) at exact recency-stack position Stack[w]
// (0 = MRU), with metadata Lines[w]; the three slices have one entry per
// way. A cache keeps every set's entries in three flat arrays and points
// one Set at whichever set an access touches, so these slices are the
// only copy of the set's state.
type Set struct {
	Tags  []uint64
	Stack []uint8
	Lines []Line
}

// Valid reports whether way w holds a block.
//
//itp:hotpath
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
	//itp:hotpath
	Victim(setIdx int, set *Set, in *arch.Access) int
	//itp:hotpath
	OnFill(setIdx int, set *Set, way int, in *arch.Access)
	//itp:hotpath
	OnHit(setIdx int, set *Set, way int, in *arch.Access)
	//itp:hotpath
	OnEvict(setIdx int, set *Set, way int)
}

// InitSet empties a set: every tag becomes NoTag and the stack positions
// become the identity permutation 0..ways-1.
func InitSet(s *Set) {
	for w := range s.Tags {
		s.Tags[w] = NoTag
		s.Stack[w] = uint8(w)
	}
}

// InvalidWay returns the index of an empty way with the deepest stack
// position, or -1 if the set is full.
//
//itp:hotpath
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
//
//itp:hotpath
func StackLRUVictim(s *Set) int {
	if w := InvalidWay(s); w >= 0 {
		return w
	}
	return StackPosOf(s, len(s.Stack)-1)
}

// StackPosOf returns the way currently at stack position pos, or -1.
//
//itp:hotpath
func StackPosOf(s *Set, pos int) int {
	for w, p := range s.Stack {
		if int(p) == pos {
			return w
		}
	}
	return -1
}

// CheckStackInvariant reports whether the set's stack positions form a
// permutation of 0..ways-1. The cache auditor's stack-permutation rule
// and the policy tests call it. The seen positions fit one fixed bitmask
// (a position is a byte), so an audit pass allocates nothing.
func CheckStackInvariant(s *Set) bool {
	var seen [4]uint64
	for _, p := range s.Stack {
		bit := uint64(1) << (p & 63)
		if int(p) >= len(s.Stack) || seen[p>>6]&bit != 0 {
			return false
		}
		seen[p>>6] |= bit
	}
	return true
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

//itp:hotpath
func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}
