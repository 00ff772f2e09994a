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

	samplers      []*optgenSet
	sampleSetMask int
	sampleShift   uint
}

const (
	hawkeyePredSize = 8192
	hawkeyePredMax  = 3
	hawkeyePredMin  = -4
	hkSampleEvery   = 16
	// optgenWindow is the history length (in set accesses) OPTgen sees.
	optgenWindow = 128
)

// optgenSet is the sampler state for one sampled set.
type optgenSet struct {
	ways int
	// occupancy[i] counts live OPT intervals crossing quantum i.
	occupancy [optgenWindow]uint8
	clock     uint64
	// lastAccess maps block -> (time, pc sig) of its previous access.
	lastAccess map[uint64]optgenEntry
}

type optgenEntry struct {
	time uint64
	sig  uint32
}

// NewHawkeye builds the policy for the given geometry.
func NewHawkeye(sets, ways int) *Hawkeye {
	h := &Hawkeye{
		pred:          make([]int8, hawkeyePredSize),
		predMask:      hawkeyePredSize - 1,
		sampleSetMask: hkSampleEvery - 1,
	}
	n := sets/hkSampleEvery + 1
	h.samplers = make([]*optgenSet, n)
	for i := range h.samplers {
		h.samplers[i] = &optgenSet{ways: ways, lastAccess: make(map[uint64]optgenEntry)}
	}
	return h
}

// Name implements Policy.
func (*Hawkeye) Name() string { return "hawkeye" }

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
func (h *Hawkeye) observe(setIdx int, block uint64, pc uint64) {
	if setIdx&h.sampleSetMask != 0 {
		return
	}
	s := h.samplers[setIdx/hkSampleEvery]
	s.clock++
	now := s.clock
	if prev, ok := s.lastAccess[block]; ok && now-prev.time < optgenWindow {
		// Would OPT have kept the block across [prev, now)? Yes iff the
		// occupancy never reached associativity in that interval.
		fits := true
		for t := prev.time; t < now; t++ {
			if s.occupancy[t%optgenWindow] >= uint8(s.ways) {
				fits = false
				break
			}
		}
		h.train(prev.sig, fits)
		if fits {
			for t := prev.time; t < now; t++ {
				s.occupancy[t%optgenWindow]++
			}
		}
	} else if ok {
		// Reuse beyond the window: treat as an OPT miss for the old PC.
		h.train(prev.sig, false)
	}
	// Reset the quantum this access starts (the window slides).
	s.occupancy[now%optgenWindow] = 0
	s.lastAccess[block] = optgenEntry{time: now, sig: h.sig(pc)}
	// Bound the map.
	if len(s.lastAccess) > 8*optgenWindow {
		// Deleting every entry matching a pure age predicate leaves the
		// same surviving map state in any iteration order.
		//itp:deterministic — predicate prune; order cannot affect the result
		for k, v := range s.lastAccess {
			if now-v.time >= optgenWindow {
				delete(s.lastAccess, k)
			}
		}
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
	h.train(uint32(set.Lines[victim].Sig)&uint32(h.predMask), false)
	return victim
}

// OnFill implements Policy.
func (h *Hawkeye) OnFill(setIdx int, set *Set, way int, in *arch.Access) {
	h.observe(setIdx, uint64(set.Tags[way]), in.PC)
	l := &set.Lines[way]
	l.Sig = uint16(h.sig(in.PC))
	if h.friendly(in.PC) {
		l.RRPV = rrpvNear
	} else {
		l.RRPV = rrpvMax
	}
	MoveToStackPos(set, way, 0)
}

// OnHit implements Policy.
func (h *Hawkeye) OnHit(setIdx int, set *Set, way int, in *arch.Access) {
	h.observe(setIdx, uint64(set.Tags[way]), in.PC)
	l := &set.Lines[way]
	l.Sig = uint16(h.sig(in.PC))
	if h.friendly(in.PC) {
		l.RRPV = rrpvNear
	} else {
		l.RRPV = rrpvMax
	}
	MoveToStackPos(set, way, 0)
}

// OnEvict implements Policy.
func (*Hawkeye) OnEvict(int, *Set, int) {}
