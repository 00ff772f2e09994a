package core

import (
	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/tlb"
)

// ITP is the Instruction Translation Prioritization STLB replacement
// policy (Section 4.1). Per entry it keeps the 1-bit Type (instruction vs
// data translation, already part of tlb.Entry as Class) and a saturating
// Freq counter.
//
// Insertion (Figure 5, top):
//   - data translations are inserted at LRUpos — first in line for
//     eviction (step 1);
//   - instruction translations are inserted N positions below MRUpos with
//     Freq reset to 0 (steps 2–3); the MRU position itself is reserved
//     for instruction entries whose Freq counter has saturated.
//
// Promotion (Figure 5, bottom):
//   - an instruction hit promotes to MRUpos if Freq is saturated, else to
//     MRUpos−N, incrementing Freq (steps i–iii);
//   - a data hit moves the entry to LRUpos+M, i.e. M positions above the
//     bottom of the stack (step iv).
//
// Eviction is plain LRU: the entry at LRUpos.
type ITP struct {
	n       int
	m       int
	freqMax uint8
}

// NewITP builds iTP from its configuration parameters.
func NewITP(p config.ITPParams) *ITP {
	return &ITP{
		n:       p.N,
		m:       p.M,
		freqMax: uint8(1<<p.FreqBits - 1),
	}
}

// Name implements tlb.Policy.
func (*ITP) Name() string { return "itp" }

// Victim implements tlb.Policy: the entry at LRUpos, like LRU-based
// policies (Section 4.1).
func (*ITP) Victim(_ int, set *tlb.Set, _ *tlb.Request) int {
	return tlb.StackLRUVictim(set)
}

// insertionPos returns the stack position iTP assigns to a new or
// re-promoted non-saturated instruction entry: MRUpos−N, clamped to the
// set size.
func (p *ITP) insertionPos(set *tlb.Set) int { return min(p.n, len(set.Stack)-1) }

// dataPromotionPos returns LRUpos+M as a stack index: M positions above
// the bottom of the stack.
func (p *ITP) dataPromotionPos(set *tlb.Set) int { return max(len(set.Stack)-1-p.m, 0) }

// OnFill implements tlb.Policy (iTP's insertion policy).
func (p *ITP) OnFill(_ int, set *tlb.Set, way int, req *tlb.Request) {
	if req.Class == arch.InstrClass {
		set.Entries[way].Freq = 0
		replacement.MoveToStackPos(set.Stack, way, p.insertionPos(set))
		return
	}
	replacement.MoveToStackPos(set.Stack, way, len(set.Stack)-1) // LRUpos
}

// OnHit implements tlb.Policy (iTP's promotion policy).
func (p *ITP) OnHit(_ int, set *tlb.Set, way int, _ *tlb.Request) {
	e := &set.Entries[way]
	if e.Class == arch.InstrClass {
		if e.Freq >= p.freqMax {
			replacement.MoveToStackPos(set.Stack, way, 0) // MRUpos
		} else {
			replacement.MoveToStackPos(set.Stack, way, p.insertionPos(set))
			e.Freq++
		}
		return
	}
	replacement.MoveToStackPos(set.Stack, way, p.dataPromotionPos(set))
}

// OnEvict implements tlb.Policy.
func (*ITP) OnEvict(int, *tlb.Set, int) {}

// ProbLRU is the motivation study's modified LRU (Section 3.2): on each
// eviction it victimises the least-recently-used *data* translation with
// probability P, and the least-recently-used *instruction* translation
// with probability 1−P; if only one class is present, the overall LRU
// entry is evicted regardless of the draw. Insertion and promotion follow
// plain LRU.
type ProbLRU struct {
	p   float64
	rng uint64
}

// NewProbLRU returns the variant with keep-instructions probability p.
func NewProbLRU(p float64, seed uint64) *ProbLRU {
	if seed == 0 {
		seed = 0x243f6a8885a308d3
	}
	return &ProbLRU{p: p, rng: seed}
}

// Name implements tlb.Policy.
func (*ProbLRU) Name() string { return "problru" }

func (p *ProbLRU) nextFloat() float64 {
	p.rng ^= p.rng << 13
	p.rng ^= p.rng >> 7
	p.rng ^= p.rng << 17
	return float64(p.rng>>11) / float64(1<<53)
}

// lruOfClass returns the deepest-stacked valid entry of class c, or -1.
func lruOfClass(set *tlb.Set, c arch.Class) int {
	victim, deepest := -1, -1
	for i := range set.Entries {
		if e := &set.Entries[i]; e.Valid && e.Class == c && int(set.Stack[i]) > deepest {
			victim, deepest = i, int(set.Stack[i])
		}
	}
	return victim
}

// Victim implements tlb.Policy.
func (p *ProbLRU) Victim(_ int, set *tlb.Set, _ *tlb.Request) int {
	if w := tlb.InvalidWay(set); w >= 0 {
		return w
	}
	victimClass := arch.InstrClass
	if p.nextFloat() < p.p {
		victimClass = arch.DataClass
	}
	if w := lruOfClass(set, victimClass); w >= 0 {
		return w
	}
	return tlb.StackLRUVictim(set)
}

// OnFill implements tlb.Policy.
func (*ProbLRU) OnFill(_ int, set *tlb.Set, way int, _ *tlb.Request) {
	replacement.MoveToStackPos(set.Stack, way, 0)
}

// OnHit implements tlb.Policy.
func (*ProbLRU) OnHit(_ int, set *tlb.Set, way int, _ *tlb.Request) {
	replacement.MoveToStackPos(set.Stack, way, 0)
}

// OnEvict implements tlb.Policy.
func (*ProbLRU) OnEvict(int, *tlb.Set, int) {}
