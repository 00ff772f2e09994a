package replacement

import "itpsim/internal/arch"

// LRU is exact least-recently-used replacement over the per-set recency
// stack. It is the baseline policy of the paper (Table 2) at every level.
type LRU struct{}

// NewLRU returns the LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// Victim implements Policy: the bottom of the recency stack.
func (*LRU) Victim(_ int, set *Set, _ *arch.Access) int {
	return StackLRUVictim(set)
}

// OnFill implements Policy: insert at MRU.
func (*LRU) OnFill(_ int, set *Set, way int, _ *arch.Access) {
	MoveToStackPos(set.Stack, way, 0)
}

// OnHit implements Policy: promote to MRU.
func (*LRU) OnHit(_ int, set *Set, way int, _ *arch.Access) {
	MoveToStackPos(set.Stack, way, 0)
}

// OnEvict implements Policy.
func (*LRU) OnEvict(int, *Set, int) {}

// Random evicts a uniformly random valid way (invalid ways first). It
// models the first-level-TLB policy vendors commonly use and serves as a
// sanity baseline.
type Random struct {
	rng xorshift64
}

// NewRandom returns a Random policy seeded deterministically.
func NewRandom(seed uint64) *Random { return &Random{rng: newXorshift(seed)} }

// Name implements Policy.
func (*Random) Name() string { return "random" }

// Victim implements Policy.
func (r *Random) Victim(_ int, set *Set, _ *arch.Access) int {
	if w := InvalidWay(set); w >= 0 {
		return w
	}
	return int(r.rng.next() % uint64(len(set.Tags)))
}

// OnFill implements Policy (random keeps the stack fresh anyway so other
// metadata stays meaningful for mixed configurations).
func (*Random) OnFill(_ int, set *Set, way int, _ *arch.Access) {
	MoveToStackPos(set.Stack, way, 0)
}

// OnHit implements Policy.
func (*Random) OnHit(_ int, set *Set, way int, _ *arch.Access) {
	MoveToStackPos(set.Stack, way, 0)
}

// OnEvict implements Policy.
func (*Random) OnEvict(int, *Set, int) {}
