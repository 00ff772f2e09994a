package core

import (
	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
)

// XPTP is the extended Page Table Prioritization L2C replacement policy
// (Section 4.2). Insertion and promotion follow LRU; the eviction policy
// (Figure 6) protects blocks that hold *data* PTEs:
//
//	a. the default victim is the block at LRUpos;
//	b. the alternative victim (ALT_LRU) is the deepest-stacked block
//	   that does not hold a data PTE;
//	c. if ALT_LRU sits at least K positions above the bottom of the
//	   stack, it is "too recent" — the inequality
//	   ALT_LRUpos >= LRUpos + K holds — and the true LRU block (a data
//	   PTE) is evicted after all;
//	d. otherwise the alternative victim is evicted, keeping the data
//	   PTE resident.
//
// When the adaptive controller reports low STLB pressure the eviction
// steps a–d are skipped and the policy degenerates to plain LRU
// (Section 4.3.1) — no separate LRU implementation is needed.
type XPTP struct {
	k int
	// enabled gates the PTE-protecting eviction path; nil means always
	// enabled (the non-adaptive xPTP used in ablations).
	enabled func() bool
}

// NewXPTP builds an always-on xPTP from its parameters.
func NewXPTP(p config.XPTPParams) *XPTP {
	return &XPTP{k: p.K}
}

// NewAdaptiveXPTP builds an xPTP gated by the given enable signal
// (normally Controller.Enabled).
func NewAdaptiveXPTP(p config.XPTPParams, enabled func() bool) *XPTP {
	return &XPTP{k: p.K, enabled: enabled}
}

// Name implements replacement.Policy.
func (x *XPTP) Name() string { return "xptp" }

// Victim implements replacement.Policy.
func (x *XPTP) Victim(_ int, set *replacement.Set, _ *arch.Access) int {
	if w := replacement.InvalidWay(set); w >= 0 {
		return w
	}
	lruVictim, lruDepth := 0, -1
	altVictim, altDepth := -1, -1
	for i := range set.Lines {
		pos := int(set.Stack[i])
		if pos > lruDepth {
			lruVictim, lruDepth = i, pos
		}
		if !set.Lines[i].IsDataPTE() && pos > altDepth {
			altVictim, altDepth = i, pos
		}
	}
	if x.enabled != nil && !x.enabled() {
		return lruVictim // adaptive fallback: plain LRU
	}
	if altVictim < 0 {
		// Every block holds a data PTE; evict the LRU one.
		return lruVictim
	}
	// Positions from the bottom of the stack: LRU victim is at distance
	// 0; the inequality ALT_LRUpos >= LRUpos + K asks whether the
	// alternative is at least K recency positions above the bottom.
	altFromBottom := (len(set.Lines) - 1) - altDepth
	if altFromBottom >= x.k {
		return lruVictim
	}
	return altVictim
}

// OnFill implements replacement.Policy: LRU insertion at MRU (the Type
// bit is written by the cache when the fill completes, step 3.1 of
// Figure 7).
func (*XPTP) OnFill(_ int, set *replacement.Set, way int, _ *arch.Access) {
	replacement.MoveToStackPos(set.Stack, way, 0)
}

// OnHit implements replacement.Policy: LRU promotion.
func (*XPTP) OnHit(_ int, set *replacement.Set, way int, _ *arch.Access) {
	replacement.MoveToStackPos(set.Stack, way, 0)
}

// OnEvict implements replacement.Policy.
func (*XPTP) OnEvict(int, *replacement.Set, int) {}

// Controller is the phase-adaptive mechanism of Section 4.3.1: a
// retired-instruction counter, an STLB-miss counter, and a 1-bit status
// register. Every WindowInstr retired instructions the miss count is
// compared against T1; the status bit selects xPTP when the count
// exceeds T1 and LRU otherwise, and both counters reset.
type Controller struct {
	windowInstr arch.Instr
	t1          int

	instrCount arch.Instr
	missCount  int
	useXPTP    bool

	// Window tallies for reporting.
	EnabledWindows  uint64
	DisabledWindows uint64
}

// NewController builds the controller. T1 <= 0 pins xPTP on.
func NewController(p config.XPTPParams) *Controller {
	w := arch.Instr(p.WindowInstr)
	if w == 0 {
		w = 1000
	}
	return &Controller{windowInstr: w, t1: p.T1, useXPTP: true}
}

// OnSTLBMiss records one STLB miss.
func (c *Controller) OnSTLBMiss() { c.missCount++ }

// OnRetire records n retired instructions and closes windows as they
// complete.
func (c *Controller) OnRetire(n arch.Instr) {
	c.instrCount += n
	for c.instrCount >= c.windowInstr {
		c.instrCount -= c.windowInstr
		if c.t1 <= 0 {
			c.useXPTP = true
		} else {
			c.useXPTP = c.missCount > c.t1
		}
		if c.useXPTP {
			c.EnabledWindows++
		} else {
			c.DisabledWindows++
		}
		c.missCount = 0
	}
}

// WindowInstr returns the controller's window size in retired
// instructions.
func (c *Controller) WindowInstr() arch.Instr { return c.windowInstr }

// T1 returns the controller's STLB-miss threshold.
func (c *Controller) T1() int { return c.t1 }

// Enabled reports whether xPTP's protecting eviction is active.
func (c *Controller) Enabled() bool { return c.useXPTP }
