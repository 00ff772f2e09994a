package replacement

import "itpsim/internal/arch"

// Hawkeye (Jain & Lin, ISCA'16) learns from Belady's OPT: a set sampler
// replays recent accesses through OPTgen (an occupancy vector that
// reconstructs whether OPT would have hit), and a PC-indexed predictor
// classifies instructions as cache-friendly or cache-averse. Friendly
// fills insert protected; averse fills insert at distant RRPV so they
// leave quickly. Re-implemented from the paper's description.
type Hawkeye struct {
	pred     []int8 // 3-bit saturating: >=0 friendly, <0 averse
	predMask uint64

	samplers      []optgenSet
	sampleSetMask int
	ways          int
}

const (
	hawkeyePredSize = 8192
	hawkeyePredMax  = 3
	hawkeyePredMin  = -4
	hkSampleEvery   = 16
	// optgenWindow is the history length (in set accesses) OPTgen sees.
	optgenWindow = 128
	// optgenCap bounds a set's history: an access that takes it past
	// 8*optgenWindow blocks prunes every entry at least optgenWindow
	// accesses old.
	optgenCap  = 8*optgenWindow + 1
	optgenBits = 11 // 2048 buckets over a set's optgenCap slots
)

// optgenSet is the sampler state for one sampled set.
type optgenSet struct {
	// occupancy[i] counts live OPT intervals crossing quantum i.
	occupancy [optgenWindow]uint8
	clock     uint64
	// hist holds the time and PC signature of each block's previous
	// access in its first n slots.
	hist history
	n    int
}

// NewHawkeye builds the policy for the given geometry.
func NewHawkeye(sets, ways int) *Hawkeye {
	h := &Hawkeye{
		pred:          make([]int8, hawkeyePredSize),
		predMask:      hawkeyePredSize - 1,
		samplers:      make([]optgenSet, sets/hkSampleEvery+1),
		sampleSetMask: hkSampleEvery - 1,
		ways:          ways,
	}
	return h
}

// Name implements Policy.
func (*Hawkeye) Name() string { return "hawkeye" }

// Columns implements Columnar: each way keeps the signature of the PC
// that last touched it, to detrain when it is evicted while friendly.
func (*Hawkeye) Columns() Columns { return SigColumn }

func (h *Hawkeye) sig(pc uint64) uint32 {
	x := pc >> 2
	x ^= x >> 13
	x *= 0x9e3779b97f4a7c15
	return uint32((x >> 17) & h.predMask)
}

func (h *Hawkeye) friendly(pc uint64) bool { return h.pred[h.sig(pc)] >= 0 }

func (h *Hawkeye) train(sig uint32, hit bool) {
	if hit {
		if h.pred[sig] < hawkeyePredMax {
			h.pred[sig]++
		}
	} else if h.pred[sig] > hawkeyePredMin {
		h.pred[sig]--
	}
}

// observe runs one access through OPTgen for sampled sets.
func (h *Hawkeye) observe(setIdx int, block uint32, pc uint64) {
	if setIdx&h.sampleSetMask != 0 {
		return
	}
	s := &h.samplers[setIdx/hkSampleEvery]
	if s.hist.slots == nil {
		// Every sampled set takes its storage at the first sampled
		// access, which keeps it out of set-up. Taking a set's storage
		// at that set's own first access would leave first touches
		// allocating long after warmup.
		for i := range h.samplers {
			h.samplers[i].hist = newHistory(optgenCap, optgenBits)
		}
	}
	s.clock++
	now := s.clock
	i := s.hist.find(block)
	if i >= 0 {
		prev := s.hist.slots[i]
		if now-prev.time < optgenWindow {
			// Would OPT have kept the block across [prev, now)? Yes iff
			// the occupancy never reached associativity in that
			// interval.
			fits := true
			for t := prev.time; t < now; t++ {
				if s.occupancy[t%optgenWindow] >= uint8(h.ways) {
					fits = false
					break
				}
			}
			h.train(uint32(prev.sig), fits)
			if fits {
				for t := prev.time; t < now; t++ {
					s.occupancy[t%optgenWindow]++
				}
			}
		} else {
			// Reuse beyond the window: treat as an OPT miss for the old PC.
			h.train(uint32(prev.sig), false)
		}
	}
	// Reset the quantum this access starts (the window slides).
	s.occupancy[now%optgenWindow] = 0
	if i < 0 {
		i = s.n
		s.n++
		s.hist.slots[i].block = block
		s.hist.link(i)
	}
	s.hist.slots[i].time = now
	s.hist.slots[i].sig = uint16(h.sig(pc))
	if s.n == optgenCap {
		s.prune(now)
	}
}

// prune drops every entry at least optgenWindow accesses old and
// rebuilds the bucket chains over the survivors.
func (s *optgenSet) prune(now uint64) {
	n := 0
	for _, e := range s.hist.slots[:s.n] {
		if now-e.time < optgenWindow {
			s.hist.slots[n] = e
			n++
		}
	}
	s.n = n
	clear(s.hist.heads)
	for i := range n {
		s.hist.link(i)
	}
}

// Victim implements Policy: evict the first cache-averse (distant RRPV)
// block; if all are friendly, evict the oldest (highest RRPV after
// aging) and detrain its PC, as Hawkeye prescribes.
func (h *Hawkeye) Victim(_ int, set *Set, _ *arch.Access) int {
	if w := InvalidWay(set); w >= 0 {
		return w
	}
	for i := range set.Lines {
		if set.Lines[i].RRPV >= rrpvMax {
			return i
		}
	}
	// All friendly: evict the least recent (deepest stack) and detrain.
	victim := StackLRUVictim(set)
	h.train(uint32(set.Sigs[victim])&uint32(h.predMask), false)
	return victim
}

// OnFill implements Policy.
func (h *Hawkeye) OnFill(setIdx int, set *Set, way int, in *arch.Access) {
	h.observe(setIdx, set.Tags[way], in.PC)
	set.Sigs[way] = uint16(h.sig(in.PC))
	l := &set.Lines[way]
	if h.friendly(in.PC) {
		l.RRPV = rrpvNear
	} else {
		l.RRPV = rrpvMax
	}
	MoveToStackPos(set.Stack, way, 0)
}

// OnHit implements Policy.
func (h *Hawkeye) OnHit(setIdx int, set *Set, way int, in *arch.Access) {
	h.observe(setIdx, set.Tags[way], in.PC)
	set.Sigs[way] = uint16(h.sig(in.PC))
	l := &set.Lines[way]
	if h.friendly(in.PC) {
		l.RRPV = rrpvNear
	} else {
		l.RRPV = rrpvMax
	}
	MoveToStackPos(set.Stack, way, 0)
}

// OnEvict implements Policy.
func (*Hawkeye) OnEvict(int, *Set, int) {}
