package replacement

import "itpsim/internal/arch"

// TSHiP is the translation-aware SHiP of Vasudha & Panda (ISPASS'22),
// the LLC companion of T-DRRIP ("T-DRRIP+T-SHiP" in the paper's related
// work): SHiP's signature-based insertion, with two translation-aware
// overrides — blocks holding PTEs are inserted with near-immediate
// re-reference (protected), and demand blocks whose triggering access
// missed in the STLB are inserted distant regardless of their signature.
type TSHiP struct {
	SHiP
}

// NewTSHiP returns a T-SHiP policy.
func NewTSHiP(sets int, seed uint64) *TSHiP {
	return &TSHiP{SHiP: *NewSHiP(sets, seed)}
}

// Name implements Policy.
func (*TSHiP) Name() string { return "tship" }

// OnFill implements Policy.
func (t *TSHiP) OnFill(setIdx int, set *Set, way int, in *arch.Access) {
	l := &set.Lines[way]
	switch {
	case l.IsPTE():
		set.Sigs[way] = t.signature(in.PC)
		l.SetReused(false)
		l.RRPV = rrpvNear
	case l.STLBMiss():
		set.Sigs[way] = t.signature(in.PC)
		l.SetReused(false)
		l.RRPV = rrpvMax
	default:
		t.SHiP.OnFill(setIdx, set, way, in)
	}
}

// Victim implements Policy: like T-DRRIP, prefer distant blocks from
// STLB-missing demand accesses and avoid PTE blocks while any
// alternative exists.
func (t *TSHiP) Victim(setIdx int, set *Set, in *arch.Access) int {
	if w := InvalidWay(set); w >= 0 {
		return w
	}
	lines := set.Lines
	for {
		for i := range lines {
			if lines[i].RRPV >= rrpvMax && lines[i].STLBMiss() && !lines[i].IsPTE() {
				return i
			}
		}
		for i := range lines {
			if lines[i].RRPV >= rrpvMax && !lines[i].IsPTE() {
				return i
			}
		}
		for i := range lines {
			if lines[i].RRPV >= rrpvMax {
				return i
			}
		}
		for i := range lines {
			lines[i].RRPV++
		}
	}
}
