package replacement

import "itpsim/internal/arch"

// Mockingjay (Shah, Jain & Lin, HPCA'22) mimics Belady's MIN policy by
// predicting each block's reuse distance from a PC-indexed predictor
// trained on a set sampler, and evicting the line whose next use is
// estimated to be farthest in the future.
//
// This is a re-implementation from the paper's description (the original
// artifact is C++): a sampler records recent block accesses for a subset
// of sets and trains the reuse-distance predictor on observed distances
// (or "scan" for blocks that age out of the sampler unreused); every way
// carries an estimated time of next access (ETA) in its set's ETAs
// column; the victim is the line with the maximum ETA, with lines
// predicted "scan" evicted first.
type Mockingjay struct {
	pred     []int32 // predicted reuse distance per signature, -1 = scan
	predMask uint64
	// sampler is a FIFO ring of mjSamplerCap slots: a new block takes
	// slot samplerNext, which holds the oldest entry once samplerLen
	// reaches the cap. A re-accessed block keeps its slot.
	sampler       history
	samplerNext   int
	samplerLen    int
	sampleSetMask int
	clock         uint64 // logical time: one tick per cache access
	maxRD         int32
}

const (
	mjTableSize   = 8192
	mjSamplerCap  = 4096
	mjSamplerBits = 13 // 8192 buckets over the sampler's 4096 slots
	mjSampleEvery = 8  // sample 1 of every 8 sets
)

// NewMockingjay returns a Mockingjay policy for the given geometry; maxRD
// scales with cache capacity (a block not reused within ~4x the cache's
// block count is treated as a scan).
func NewMockingjay(sets, ways int) *Mockingjay {
	m := &Mockingjay{
		pred:          make([]int32, mjTableSize),
		predMask:      mjTableSize - 1,
		sampler:       newHistory(mjSamplerCap, mjSamplerBits),
		sampleSetMask: mjSampleEvery - 1,
		maxRD:         int32(4 * sets * ways),
	}
	for i := range m.pred {
		m.pred[i] = m.maxRD / 2
	}
	return m
}

// Name implements Policy.
func (*Mockingjay) Name() string { return "mockingjay" }

// Columns implements Columnar: each way keeps its ETA and the signature
// of the PC that last touched it.
func (*Mockingjay) Columns() Columns { return SigColumn | ETAColumn }

func (m *Mockingjay) signature(pc uint64) uint16 {
	h := pc >> 2
	h ^= h >> 11
	h *= 0xff51afd7ed558ccd
	return uint16((h >> 19) & m.predMask)
}

// train nudges the predictor for sig toward the observed reuse distance
// using a 1/4 exponential moving average; rd < 0 records a scan.
func (m *Mockingjay) train(sig uint16, rd int32) {
	cur := m.pred[sig]
	if rd < 0 || rd > m.maxRD {
		rd = m.maxRD
	}
	m.pred[sig] = cur + (rd-cur)/4
}

// sample records an access to block in the sampler (for sampled sets)
// and trains on the previously recorded access if present.
func (m *Mockingjay) sample(setIdx int, block uint32, pc uint64) {
	if setIdx&m.sampleSetMask != 0 {
		return
	}
	sig := m.signature(pc)
	if i := m.sampler.find(block); i >= 0 {
		prev := &m.sampler.slots[i]
		m.train(prev.sig, int32(m.clock-prev.time))
		prev.sig = sig
		prev.time = m.clock
		return
	}
	i := m.samplerNext
	if m.samplerLen == mjSamplerCap {
		// Bound the sampler: age out the oldest entry FIFO-style,
		// training it as a scan (it was not reused while sampled).
		m.train(m.sampler.slots[i].sig, -1)
		m.sampler.unlink(i)
	} else {
		m.samplerLen++
	}
	m.sampler.slots[i] = histEntry{time: m.clock, block: block, sig: sig}
	m.sampler.link(i)
	m.samplerNext = (i + 1) % mjSamplerCap
}

// Victim implements Policy: evict the line whose estimated next access is
// farthest in the future; expired predictions (ETA already passed) lose
// ties to live ones so provably-stale lines go first.
func (m *Mockingjay) Victim(_ int, set *Set, _ *arch.Access) int {
	if w := InvalidWay(set); w >= 0 {
		return w
	}
	victim, worst := 0, int64(-1<<62)
	for i, eta := range set.ETAs {
		// Score: how far in the future we expect the next access;
		// overdue lines score by how overdue they are plus a large
		// bias so they are preferred.
		score := int64(eta) - int64(m.clock)
		if score < 0 {
			score = -score + int64(m.maxRD)
		}
		if score > worst {
			victim, worst = i, score
		}
	}
	return victim
}

// OnFill implements Policy.
func (m *Mockingjay) OnFill(setIdx int, set *Set, way int, in *arch.Access) {
	m.clock++
	m.sample(setIdx, set.Tags[way], in.PC)
	sig := m.signature(in.PC)
	set.Sigs[way] = sig
	set.ETAs[way] = m.clock + uint64(m.pred[sig])
}

// OnHit implements Policy: re-predict from the hitting PC.
func (m *Mockingjay) OnHit(setIdx int, set *Set, way int, in *arch.Access) {
	m.clock++
	m.sample(setIdx, set.Tags[way], in.PC)
	sig := m.signature(in.PC)
	set.Sigs[way] = sig
	set.ETAs[way] = m.clock + uint64(m.pred[sig])
}

// OnEvict implements Policy.
func (*Mockingjay) OnEvict(int, *Set, int) {}
