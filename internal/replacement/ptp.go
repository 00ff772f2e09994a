package replacement

import "itpsim/internal/arch"

// PTP is Page Table Prioritization (Park et al., ASPLOS'22 "Every walk's
// a hit"): an LRU-based policy that refuses to evict cache blocks holding
// PTEs while any non-PTE block exists in the set, so page walks become
// (near-)single-access cache hits. Unlike xPTP it protects *all* PTE
// blocks — instruction and data alike — and has no pressure-adaptive
// escape hatch, the two limitations Section 2.2 calls out.
type PTP struct{}

// NewPTP returns the PTP policy.
func NewPTP() *PTP { return &PTP{} }

// Name implements Policy.
func (*PTP) Name() string { return "ptp" }

// Victim implements Policy: the LRU block among non-PTE blocks; if the
// whole set holds PTEs, plain LRU.
func (*PTP) Victim(_ int, set *Set, _ *arch.Access) int {
	if w := InvalidWay(set); w >= 0 {
		return w
	}
	victim, deepest := -1, -1
	for i := range set.Lines {
		if set.Lines[i].IsPTE() {
			continue
		}
		if int(set.Stack[i]) > deepest {
			victim, deepest = i, int(set.Stack[i])
		}
	}
	if victim >= 0 {
		return victim
	}
	return StackLRUVictim(set)
}

// OnFill implements Policy: LRU insertion, with PTE blocks inserted at MRU.
func (*PTP) OnFill(_ int, set *Set, way int, _ *arch.Access) {
	MoveToStackPos(set.Stack, way, 0)
}

// OnHit implements Policy.
func (*PTP) OnHit(_ int, set *Set, way int, _ *arch.Access) {
	MoveToStackPos(set.Stack, way, 0)
}

// OnEvict implements Policy.
func (*PTP) OnEvict(int, *Set, int) {}
