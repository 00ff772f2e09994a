package replacement

import (
	"math/rand"
	"slices"
	"testing"

	"itpsim/internal/arch"
)

// refMockingjay is Mockingjay with the sampler it kept before the fixed
// ring: a map from block to a heap entry plus a FIFO slice of insertion
// order. It shares every other part of the policy (predictor, ETAs,
// Victim), so it differs from the real one only in sampler storage.
type refMockingjay struct {
	*Mockingjay
	sampler   map[uint64]*refMJEntry
	fifo      []uint64
	evictions int
}

type refMJEntry struct {
	sig  uint16
	time uint64
}

func newRefMockingjay(sets, ways int) *refMockingjay {
	return &refMockingjay{Mockingjay: NewMockingjay(sets, ways), sampler: map[uint64]*refMJEntry{}}
}

func (m *refMockingjay) sample(setIdx int, blockAddr, pc uint64) {
	if setIdx&m.sampleSetMask != 0 {
		return
	}
	sig := m.signature(pc)
	if prev, ok := m.sampler[blockAddr]; ok {
		m.train(prev.sig, int32(m.clock-prev.time))
		prev.sig = sig
		prev.time = m.clock
		return
	}
	if len(m.sampler) >= mjSamplerCap {
		for len(m.fifo) > 0 {
			old := m.fifo[0]
			m.fifo = m.fifo[1:]
			if e, ok := m.sampler[old]; ok {
				m.train(e.sig, -1)
				delete(m.sampler, old)
				m.evictions++
				break
			}
		}
	}
	m.sampler[blockAddr] = &refMJEntry{sig: sig, time: m.clock}
	m.fifo = append(m.fifo, blockAddr)
}

func (m *refMockingjay) OnFill(setIdx int, set *Set, way int, in *arch.Access) {
	m.OnHit(setIdx, set, way, in)
}

func (m *refMockingjay) OnHit(setIdx int, set *Set, way int, in *arch.Access) {
	m.clock++
	m.sample(setIdx, uint64(set.Tags[way]), in.PC)
	sig := m.signature(in.PC)
	set.Sigs[way] = sig
	set.ETAs[way] = m.clock + uint64(m.pred[sig])
}

// refHawkeye is Hawkeye with the OPTgen history it kept before fixed
// storage: one map per sampled set, pruned by ranging over it. Like
// refMockingjay it shares the predictor and Victim with the real policy.
type refHawkeye struct {
	*Hawkeye
	sets   map[int]*refOptgen
	prunes int
}

type refOptgen struct {
	occupancy  [optgenWindow]uint8
	clock      uint64
	lastAccess map[uint64]refOptgenEntry
}

type refOptgenEntry struct {
	time uint64
	sig  uint32
}

func newRefHawkeye(sets, ways int) *refHawkeye {
	return &refHawkeye{Hawkeye: NewHawkeye(sets, ways), sets: map[int]*refOptgen{}}
}

func (h *refHawkeye) observe(setIdx int, block uint64, pc uint64) {
	if setIdx&h.sampleSetMask != 0 {
		return
	}
	s := h.sets[setIdx]
	if s == nil {
		s = &refOptgen{lastAccess: map[uint64]refOptgenEntry{}}
		h.sets[setIdx] = s
	}
	s.clock++
	now := s.clock
	if prev, ok := s.lastAccess[block]; ok && now-prev.time < optgenWindow {
		fits := true
		for t := prev.time; t < now; t++ {
			if s.occupancy[t%optgenWindow] >= uint8(h.ways) {
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
		h.train(prev.sig, false)
	}
	s.occupancy[now%optgenWindow] = 0
	s.lastAccess[block] = refOptgenEntry{time: now, sig: h.sig(pc)}
	if len(s.lastAccess) > 8*optgenWindow {
		h.prunes++
		for k, v := range s.lastAccess {
			if now-v.time >= optgenWindow {
				delete(s.lastAccess, k)
			}
		}
	}
}

func (h *refHawkeye) OnFill(setIdx int, set *Set, way int, in *arch.Access) {
	h.OnHit(setIdx, set, way, in)
}

func (h *refHawkeye) OnHit(setIdx int, set *Set, way int, in *arch.Access) {
	h.observe(setIdx, uint64(set.Tags[way]), in.PC)
	set.Sigs[way] = uint16(h.sig(in.PC))
	l := &set.Lines[way]
	if h.friendly(in.PC) {
		l.RRPV = rrpvNear
	} else {
		l.RRPV = rrpvMax
	}
	MoveToStackPos(set.Stack, way, 0)
}

// modelCache is a set-associative cache driven through the Policy
// interface the way cache.Cache drives it: block b lives in set
// b mod sets.
type modelCache struct {
	p    Policy
	sets []*Set
}

func newModelCache(p Policy, sets, ways int) *modelCache {
	c := &modelCache{p: p, sets: make([]*Set, sets)}
	for i := range c.sets {
		c.sets[i] = newPolicySet(p, ways)
	}
	return c
}

// setOf returns the set block maps to.
func (c *modelCache) setOf(block uint32) *Set { return c.sets[int(block)&(len(c.sets)-1)] }

// access touches block from pc and returns the way it hit or filled.
func (c *modelCache) access(block uint32, pc uint64) (way int, hit bool) {
	si := int(block) & (len(c.sets) - 1)
	set := c.sets[si]
	acc := &arch.Access{Addr: arch.Addr(block) << arch.BlockBits, PC: pc}
	for w, tag := range set.Tags {
		if tag == block {
			c.p.OnHit(si, set, w, acc)
			return w, true
		}
	}
	way = c.p.Victim(si, set, acc)
	if set.Valid(way) {
		c.p.OnEvict(si, set, way)
	}
	set.Tags[way] = block
	set.Lines[way] = Line{}
	c.p.OnFill(si, set, way, acc)
	return way, false
}

// samplerStream describes a block stream for the sampler tests: n
// accesses, each a new block with probability newPct%, otherwise a
// repeat of the block accessed d accesses earlier, with d up to
// shortDist for shortPct% of repeats and up to longDist for the rest.
// New blocks step by stride, which picks the sets they map to; pcs
// distinct PCs issue them.
type samplerStream struct {
	seed                int64
	n                   int
	newPct, shortPct    int
	shortDist, longDist int
	stride              uint32
	pcs                 int
}

func (s samplerStream) run(fn func(i int, block uint32, pc uint64)) (distinct int) {
	rng := rand.New(rand.NewSource(s.seed))
	var seen []uint32
	for i := 0; i < s.n; i++ {
		var b uint32
		if len(seen) == 0 || rng.Intn(100) < s.newPct {
			distinct++
			b = uint32(distinct) * s.stride
		} else {
			d := s.longDist
			if rng.Intn(100) < s.shortPct {
				d = s.shortDist
			}
			b = seen[len(seen)-1-rng.Intn(min(d, len(seen)))]
		}
		seen = append(seen, b)
		fn(i, b, 0x400000+uint64(rng.Intn(s.pcs))*4)
	}
	return distinct
}

// compareMockingjay drives the real Mockingjay and the reference through
// s on a sets×4 model cache and fails at the first access after which a
// way, a prediction or the touched set's columns differ. It returns the
// reference's FIFO evictions and the stream's distinct blocks.
func compareMockingjay(t *testing.T, s samplerStream, sets int) (evictions, distinct int) {
	t.Helper()
	got, want := NewMockingjay(sets, 4), newRefMockingjay(sets, 4)
	gc, wc := newModelCache(got, sets, 4), newModelCache(want, sets, 4)
	failed := false
	distinct = s.run(func(i int, block uint32, pc uint64) {
		if failed {
			return
		}
		gw, gh := gc.access(block, pc)
		ww, wh := wc.access(block, pc)
		switch {
		case gw != ww || gh != wh:
			t.Errorf("access %d (block %d): way %d hit %v, reference way %d hit %v", i, block, gw, gh, ww, wh)
		case !slices.Equal(got.pred, want.pred):
			t.Errorf("access %d (block %d): predictor differs from the reference", i, block)
		case !slices.Equal(gc.setOf(block).ETAs, wc.setOf(block).ETAs) || !slices.Equal(gc.setOf(block).Sigs, wc.setOf(block).Sigs):
			t.Errorf("access %d (block %d): ETAs or signatures differ from the reference", i, block)
		default:
			return
		}
		failed = true
	})
	return want.evictions, distinct
}

// compareHawkeye is compareMockingjay for Hawkeye; it returns the
// reference's prunes.
func compareHawkeye(t *testing.T, s samplerStream, sets int) (prunes, distinct int) {
	t.Helper()
	got, want := NewHawkeye(sets, 4), newRefHawkeye(sets, 4)
	gc, wc := newModelCache(got, sets, 4), newModelCache(want, sets, 4)
	failed := false
	distinct = s.run(func(i int, block uint32, pc uint64) {
		if failed {
			return
		}
		gw, gh := gc.access(block, pc)
		ww, wh := wc.access(block, pc)
		switch {
		case gw != ww || gh != wh:
			t.Errorf("access %d (block %d): way %d hit %v, reference way %d hit %v", i, block, gw, gh, ww, wh)
		case !slices.Equal(got.pred, want.pred):
			t.Errorf("access %d (block %d): predictor differs from the reference", i, block)
		default:
			return
		}
		failed = true
	})
	return want.prunes, distinct
}

// TestMockingjaySamplerMatchesReference drives about 18,000 distinct
// blocks, 4.4×mjSamplerCap, through the sampled sets of a 64-set
// Mockingjay, so the ring wraps several times and repeats reach blocks
// both before and after their entry aged out, and holds it to the
// map-based reference after every access.
func TestMockingjaySamplerMatchesReference(t *testing.T) {
	s := samplerStream{seed: 1, n: 36_000, newPct: 50, shortPct: 50, shortDist: 64, longDist: 12_000, stride: mjSampleEvery, pcs: 48}
	evictions, distinct := compareMockingjay(t, s, 64)
	if distinct < 3*mjSamplerCap || evictions == 0 {
		t.Errorf("stream drove %d distinct blocks and %d FIFO evictions, want at least %d and some", distinct, evictions, 3*mjSamplerCap)
	}
}

// TestHawkeyeHistoryMatchesReference drives about three thousand
// distinct blocks through one sampled set, so the OPTgen prune runs
// three times and repeats reach blocks in the window, past it and
// pruned, and holds Hawkeye to the map-based reference after every
// access.
func TestHawkeyeHistoryMatchesReference(t *testing.T) {
	s := samplerStream{seed: 2, n: 6_000, newPct: 50, shortPct: 50, shortDist: 100, longDist: 2_000, stride: 64, pcs: 48}
	prunes, distinct := compareHawkeye(t, s, 64)
	if distinct <= 8*optgenWindow || prunes == 0 {
		t.Errorf("stream drove %d distinct blocks and %d prunes, want more than %d and some", distinct, prunes, 8*optgenWindow)
	}
}

// FuzzSamplersMatchReference varies the stream's seed and shape and
// holds both samplers to their references after every access.
func FuzzSamplersMatchReference(f *testing.F) {
	f.Add(int64(1), uint8(50), uint8(50), uint16(64), uint16(9000), uint8(16))
	f.Add(int64(7), uint8(90), uint8(10), uint16(8), uint16(200), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, newPct, shortPct uint8, shortDist, longDist uint16, pcs uint8) {
		s := samplerStream{
			seed:      seed,
			newPct:    1 + int(newPct)%100,
			shortPct:  int(shortPct) % 101,
			shortDist: 1 + int(shortDist),
			longDist:  1 + int(longDist),
			pcs:       1 + int(pcs),
		}
		s.n, s.stride = 10_000, mjSampleEvery
		compareMockingjay(t, s, 64)
		s.n, s.stride = 4_000, 64
		compareHawkeye(t, s, 64)
	})
}
