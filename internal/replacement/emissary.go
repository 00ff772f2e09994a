package replacement

import "itpsim/internal/arch"

// Emissary is an instruction-aware L2C replacement policy modelled on
// Nagendra et al. (ISCA'23): it preserves code blocks whose misses were
// observed to stall the front end. This re-implementation tracks, per PC
// signature, how often instruction blocks from that region missed (a
// proxy for "miss caused a front-end stall" in a trace-driven setting);
// protected code blocks are inserted at near re-reference and skipped
// during victim selection while non-critical candidates exist.
//
// The paper's Section 7 points out that Emissary is orthogonal to xPTP
// (code blocks vs data-PTE blocks) and that combining them "has the
// potential to provide larger performance gains than iTP+xPTP" — the
// combination is available as the "xptp-emissary" L2C policy in
// internal/sim.
type Emissary struct {
	// critTable counts recent misses per code-region signature; regions
	// above the threshold are treated as stall-critical.
	critTable []uint8
	mask      uint64
	threshold uint8
}

const (
	emissaryTableSize = 4096
	emissaryCtrMax    = 15
	emissaryThresh    = 4
)

// NewEmissary returns an Emissary policy.
func NewEmissary() *Emissary {
	return &Emissary{
		critTable: make([]uint8, emissaryTableSize),
		mask:      emissaryTableSize - 1,
		threshold: emissaryThresh,
	}
}

// Name implements Policy.
func (*Emissary) Name() string { return "emissary" }

func (e *Emissary) sig(pc uint64) uint64 {
	h := pc >> 6 // block granularity
	h ^= h >> 13
	h *= 0x9e3779b97f4a7c15
	return (h >> 20) & e.mask
}

// critical reports whether code around pc has been missing hard.
func (e *Emissary) critical(pc uint64) bool {
	return e.critTable[e.sig(pc)] >= e.threshold
}

// train bumps the criticality of a code region on an instruction miss.
func (e *Emissary) train(pc uint64) {
	s := e.sig(pc)
	if e.critTable[s] < emissaryCtrMax {
		e.critTable[s]++
	}
}

// decay lowers criticality when protected blocks go unused.
func (e *Emissary) decay(pc uint64) {
	s := e.sig(pc)
	if e.critTable[s] > 0 {
		e.critTable[s]--
	}
}

// Victim implements Policy: LRU among blocks that are neither critical
// code nor (to stay composable) currently protected; plain LRU fallback.
func (e *Emissary) Victim(_ int, set *Set, _ *arch.Access) int {
	if w := InvalidWay(set); w >= 0 {
		return w
	}
	victim, deepest := -1, -1
	for i := range set.Lines {
		if l := &set.Lines[i]; l.Kind == arch.IFetch && e.critical(uint64(l.PC)) {
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

// OnFill implements Policy: LRU insertion; instruction misses train the
// criticality table.
func (e *Emissary) OnFill(_ int, set *Set, way int, in *arch.Access) {
	if in.Kind == arch.IFetch {
		e.train(in.PC)
	}
	MoveToStackPos(set.Stack, way, 0)
}

// OnHit implements Policy.
func (*Emissary) OnHit(_ int, set *Set, way int, _ *arch.Access) {
	set.Lines[way].SetReused(true)
	MoveToStackPos(set.Stack, way, 0)
}

// OnEvict implements Policy: evicting a *protected* code block that was
// never reused decays its region — protection that bought no hits is
// withdrawn. Evictions of unprotected or reused code blocks must not
// decay, or the training from repeated misses would cancel itself and no
// region could ever become critical.
func (e *Emissary) OnEvict(_ int, set *Set, way int) {
	l := &set.Lines[way]
	if set.Valid(way) && l.Kind == arch.IFetch && !l.Reused() && e.critical(uint64(l.PC)) {
		e.decay(uint64(l.PC))
	}
}

// XPTPEmissary composes a data-PTE-protecting policy with Emissary's
// code protection (the paper's suggested future-work combination): the
// victim must be neither a data-PTE block (xPTP) nor a critical code
// block (Emissary) while such a candidate exists; insertions and
// promotions follow LRU with Emissary's criticality training.
type XPTPEmissary struct {
	em *Emissary
	// k is the xPTP inequality parameter (see core.XPTP); protection is
	// bypassed when the best alternative is within k positions of the
	// stack bottom.
	k int
}

// NewXPTPEmissary builds the combined policy with the given xPTP K.
func NewXPTPEmissary(k int) *XPTPEmissary {
	return &XPTPEmissary{em: NewEmissary(), k: k}
}

// Name implements Policy.
func (*XPTPEmissary) Name() string { return "xptp-emissary" }

// Victim implements Policy.
func (x *XPTPEmissary) Victim(_ int, set *Set, _ *arch.Access) int {
	if w := InvalidWay(set); w >= 0 {
		return w
	}
	lruVictim, lruDepth := 0, -1
	altVictim, altDepth := -1, -1
	for i := range set.Lines {
		pos := int(set.Stack[i])
		if pos > lruDepth {
			lruVictim, lruDepth = i, pos
		}
		l := &set.Lines[i]
		if l.IsDataPTE() {
			continue
		}
		if l.Kind == arch.IFetch && x.em.critical(uint64(l.PC)) {
			continue
		}
		if pos > altDepth {
			altVictim, altDepth = i, pos
		}
	}
	if altVictim < 0 {
		return lruVictim
	}
	if (len(set.Lines)-1)-altDepth >= x.k {
		return lruVictim
	}
	return altVictim
}

// OnFill implements Policy.
func (x *XPTPEmissary) OnFill(si int, set *Set, way int, in *arch.Access) {
	x.em.OnFill(si, set, way, in)
}

// OnHit implements Policy.
func (x *XPTPEmissary) OnHit(si int, set *Set, way int, in *arch.Access) {
	x.em.OnHit(si, set, way, in)
}

// OnEvict implements Policy.
func (x *XPTPEmissary) OnEvict(si int, set *Set, way int) {
	x.em.OnEvict(si, set, way)
}
