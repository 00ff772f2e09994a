package tlb

// TLB-side baseline replacement policies: LRU (the vendor default the
// paper's baseline uses) and CHiRP (Mirbagher-Ajorpaz et al., MICRO'20),
// the state-of-the-art STLB policy iTP is compared against.

import "itpsim/internal/replacement"

// LRU is exact least-recently-used over the per-set recency stack.
type LRU struct{}

// NewLRU returns the LRU policy.
func NewLRU() *LRU { return &LRU{} }

// Name implements Policy.
func (*LRU) Name() string { return "lru" }

// Victim implements Policy.
func (*LRU) Victim(_ int, set *Set, _ *Request) int { return StackLRUVictim(set) }

// OnFill implements Policy.
func (*LRU) OnFill(_ int, s *Set, w int, _ *Request) { replacement.MoveToStackPos(s.Stack, w, 0) }

// OnHit implements Policy.
func (*LRU) OnHit(_ int, s *Set, w int, _ *Request) { replacement.MoveToStackPos(s.Stack, w, 0) }

// OnEvict implements Policy.
func (*LRU) OnEvict(int, *Set, int) {}

// CHiRP is Control-flow History Reuse Prediction: on every STLB fill a
// signature derived from recent control-flow history indexes a table of
// saturating confidence counters. Translations predicted to be reused
// soon are inserted at the top of the recency stack; translations from
// low-confidence signatures are inserted near the bottom. Hits train the
// signature up; evictions of never-reused entries train it down. CHiRP
// deliberately does not distinguish instruction from data PTEs — the
// limitation Section 2.3 highlights.
type CHiRP struct {
	table   []uint8    // confidence counters, chirpTableSize of them
	history [64]uint64 // per-thread control-flow history hash (CMP-wide)
	// lowInsertPos is where low-confidence entries land (near LRU).
	lowInsertPos int
}

const (
	chirpTableSize = 4096
	chirpCtrMax    = 7
	chirpThreshold = 4
	chirpCtrInit   = 4
)

// NewCHiRP returns a CHiRP policy for a TLB with the given associativity.
func NewCHiRP(ways int) *CHiRP {
	c := &CHiRP{table: make([]uint8, chirpTableSize), lowInsertPos: max(ways-2, 0)}
	for i := range c.table {
		c.table[i] = chirpCtrInit
	}
	return c
}

// Name implements Policy.
func (*CHiRP) Name() string { return "chirp" }

// Observe folds a retired-instruction PC into the control-flow history;
// the simulator calls this on taken branches.
func (c *CHiRP) Observe(thread uint8, pc uint64) {
	h := c.history[thread&63]
	c.history[thread&63] = (h << 5) ^ (h >> 59) ^ (pc >> 2)
}

// signature mixes the history with the missing VPN.
func (c *CHiRP) signature(thread uint8, vpn uint64) uint16 {
	h := c.history[thread&63] ^ (vpn * 0x9e3779b97f4a7c15)
	h ^= h >> 29
	return uint16(h & (chirpTableSize - 1))
}

// Victim implements Policy: plain LRU eviction (CHiRP drives insertion).
func (*CHiRP) Victim(_ int, set *Set, _ *Request) int { return StackLRUVictim(set) }

// OnFill implements Policy.
func (c *CHiRP) OnFill(_ int, set *Set, way int, req *Request) {
	sig := c.signature(req.Thread, req.VPN)
	set.Entries[way].Sig = sig
	set.Entries[way].Reused = false
	if c.table[sig] >= chirpThreshold {
		replacement.MoveToStackPos(set.Stack, way, 0)
	} else {
		replacement.MoveToStackPos(set.Stack, way, c.lowInsertPos)
	}
}

// OnHit implements Policy: promote to MRU and train the signature.
func (c *CHiRP) OnHit(_ int, set *Set, way int, _ *Request) {
	replacement.MoveToStackPos(set.Stack, way, 0)
	if e := &set.Entries[way]; !e.Reused {
		e.Reused = true
		if c.table[e.Sig] < chirpCtrMax {
			c.table[e.Sig]++
		}
	}
}

// OnEvict implements Policy: dead entries train their signature down.
func (c *CHiRP) OnEvict(_ int, set *Set, way int) {
	if e := &set.Entries[way]; e.Valid && !e.Reused {
		if c.table[e.Sig] > 0 {
			c.table[e.Sig]--
		}
	}
}
