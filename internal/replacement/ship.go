package replacement

import "itpsim/internal/arch"

// SHiP (signature-based hit predictor, Wu et al. MICRO'11) correlates PC
// signatures with block reuse: a table of saturating counters learns, per
// signature, whether blocks inserted by that PC tend to be re-referenced.
// Blocks from never-reused signatures are inserted at distant RRPV.
type SHiP struct {
	shct     []uint8 // signature history counter table, 3-bit counters
	shctMask uint64
	rng      xorshift64
}

const (
	shipTableSize = 16384
	shipCtrMax    = 7
	shipCtrInit   = 1
)

// NewSHiP returns a SHiP policy.
func NewSHiP(sets int, seed uint64) *SHiP {
	s := &SHiP{
		shct:     make([]uint8, shipTableSize),
		shctMask: shipTableSize - 1,
		rng:      newXorshift(seed),
	}
	for i := range s.shct {
		s.shct[i] = shipCtrInit
	}
	return s
}

// Name implements Policy.
func (*SHiP) Name() string { return "ship" }

// Columns implements Columnar: each way keeps the signature of the PC
// that filled it, to train on at its hit or eviction.
func (*SHiP) Columns() Columns { return SigColumn }

// signature hashes a PC into the SHCT index space.
func (s *SHiP) signature(pc uint64) uint16 {
	h := pc >> 2
	h ^= h >> 13
	h *= 0x9e3779b97f4a7c15
	return uint16((h >> 17) & s.shctMask)
}

// Victim implements Policy (SRRIP-style aging victim search).
func (*SHiP) Victim(_ int, set *Set, _ *arch.Access) int { return rripVictim(set) }

// OnFill implements Policy: insertion RRPV depends on the signature's
// learned reuse behaviour.
func (s *SHiP) OnFill(_ int, set *Set, way int, in *arch.Access) {
	sig := s.signature(in.PC)
	set.Sigs[way] = sig
	l := &set.Lines[way]
	l.SetReused(false)
	if s.shct[sig] == 0 {
		l.RRPV = rrpvMax
	} else {
		l.RRPV = rrpvLong
	}
}

// OnHit implements Policy: promote and train the signature as reused.
func (s *SHiP) OnHit(_ int, set *Set, way int, _ *arch.Access) {
	l := &set.Lines[way]
	l.RRPV = rrpvNear
	if !l.Reused() {
		l.SetReused(true)
		if sig := set.Sigs[way]; s.shct[sig] < shipCtrMax {
			s.shct[sig]++
		}
	}
}

// OnEvict implements Policy: a dead block (never reused) trains its
// signature downward.
func (s *SHiP) OnEvict(_ int, set *Set, way int) {
	if set.Valid(way) && !set.Lines[way].Reused() {
		if sig := set.Sigs[way]; s.shct[sig] > 0 {
			s.shct[sig]--
		}
	}
}
