package core

import (
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
)

func xptpParams() config.XPTPParams {
	return config.XPTPParams{K: 8, T1: 1, WindowInstr: 1000}
}

// cacheSet returns a full set whose way i holds block i at stack position i.
func cacheSet(ways int) *replacement.Set {
	set := &replacement.Set{Tags: make([]uint32, ways), Stack: make([]uint8, ways), Lines: make([]replacement.Line, ways)}
	replacement.InitSet(set)
	for i := range set.Tags {
		set.Tags[i] = uint32(i)
	}
	return set
}

func TestXPTPProtectsDataPTEs(t *testing.T) {
	x := NewXPTP(xptpParams()) // K=8 on an 8-way set: alternative always wins
	set := cacheSet(8)
	// The LRU block (deepest stack) holds a data PTE.
	lruWay := replacement.StackPosOf(set.Stack, 7)
	set.Lines[lruWay].SetPTE(true)
	set.Lines[lruWay].SetDataPTE(true)
	v := x.Victim(0, set, &arch.Access{})
	if v == lruWay {
		t.Error("xPTP evicted the data-PTE LRU block")
	}
	// Victim should be the deepest non-data-PTE block (stack 6).
	if int(set.Stack[v]) != 6 {
		t.Errorf("victim at stack %d, want 6", set.Stack[v])
	}
}

func TestXPTPInequalityEvictsPTEWhenAltTooRecent(t *testing.T) {
	// K=2: if the best alternative is within 2 positions of the stack
	// bottom we evict it; otherwise the data PTE goes.
	x := NewXPTP(config.XPTPParams{K: 2})
	set := cacheSet(8)
	// Bottom three stack positions hold data PTEs; the best alternative
	// is at stack 4 → 3 positions above bottom ≥ K → evict the LRU PTE.
	for _, pos := range []int{7, 6, 5} {
		w := replacement.StackPosOf(set.Stack, pos)
		set.Lines[w].SetDataPTE(true)
		set.Lines[w].SetPTE(true)
	}
	v := x.Victim(0, set, &arch.Access{})
	if int(set.Stack[v]) != 7 || !set.Lines[v].IsDataPTE() {
		t.Errorf("expected LRU data-PTE eviction, got stack %d (pte=%v)", set.Stack[v], set.Lines[v].IsDataPTE())
	}

	// Now only the bottom one is a PTE; alternative at stack 6 is 1
	// position above bottom < K → evict the alternative.
	set2 := cacheSet(8)
	w := replacement.StackPosOf(set2.Stack, 7)
	set2.Lines[w].SetDataPTE(true)
	v2 := x.Victim(0, set2, &arch.Access{})
	if int(set2.Stack[v2]) != 6 {
		t.Errorf("expected alternative eviction at stack 6, got %d", set2.Stack[v2])
	}
}

func TestXPTPAllDataPTEsFallsBack(t *testing.T) {
	x := NewXPTP(xptpParams())
	set := cacheSet(8)
	for i := range set.Lines {
		set.Lines[i].SetDataPTE(true)
	}
	v := x.Victim(0, set, &arch.Access{})
	if int(set.Stack[v]) != 7 {
		t.Errorf("all-PTE set should evict LRU, got stack %d", set.Stack[v])
	}
}

func TestXPTPPrefersInvalid(t *testing.T) {
	x := NewXPTP(xptpParams())
	set := cacheSet(8)
	set.Tags[3] = replacement.NoTag
	if v := x.Victim(0, set, &arch.Access{}); v != 3 {
		t.Errorf("victim = %d, want invalid way 3", v)
	}
}

func TestXPTPDisabledIsLRU(t *testing.T) {
	enabled := false
	x := NewAdaptiveXPTP(xptpParams(), func() bool { return enabled })
	set := cacheSet(8)
	lruWay := replacement.StackPosOf(set.Stack, 7)
	set.Lines[lruWay].SetDataPTE(true)
	if v := x.Victim(0, set, &arch.Access{}); v != lruWay {
		t.Error("disabled xPTP should behave as plain LRU")
	}
	enabled = true
	if v := x.Victim(0, set, &arch.Access{}); v == lruWay {
		t.Error("enabled xPTP should protect the data PTE")
	}
}

func TestXPTPFillAndHitAreLRU(t *testing.T) {
	x := NewXPTP(xptpParams())
	set := cacheSet(8)
	x.OnFill(0, set, 5, &arch.Access{})
	if set.Stack[5] != 0 {
		t.Error("fill should insert at MRU")
	}
	x.OnHit(0, set, 2, &arch.Access{})
	if set.Stack[2] != 0 {
		t.Error("hit should promote to MRU")
	}
	if !replacement.CheckStackInvariant(set.Stack) {
		t.Error("invariant broken")
	}
}

func TestControllerWindowing(t *testing.T) {
	c := NewController(config.XPTPParams{K: 8, T1: 2, WindowInstr: 1000})
	if !c.Enabled() {
		t.Error("controller should start enabled")
	}
	// Window 1: only 1 miss (≤ T1) → disable.
	c.OnSTLBMiss()
	c.OnRetire(1000)
	if c.Enabled() {
		t.Error("low-pressure window should disable xPTP")
	}
	if c.DisabledWindows != 1 {
		t.Errorf("DisabledWindows = %d, want 1", c.DisabledWindows)
	}
	// Window 2: 5 misses (> T1) → enable.
	for i := 0; i < 5; i++ {
		c.OnSTLBMiss()
	}
	c.OnRetire(1000)
	if !c.Enabled() {
		t.Error("high-pressure window should enable xPTP")
	}
	if c.EnabledWindows != 1 {
		t.Errorf("EnabledWindows = %d, want 1", c.EnabledWindows)
	}
}

func TestControllerCountersResetPerWindow(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 3, WindowInstr: 1000})
	for i := 0; i < 4; i++ {
		c.OnSTLBMiss()
	}
	c.OnRetire(1000) // enabled; counters reset
	// Next window sees zero misses → disabled.
	c.OnRetire(1000)
	if c.Enabled() {
		t.Error("miss counter should reset between windows")
	}
}

func TestControllerMultipleWindowsInOneRetire(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 1, WindowInstr: 1000})
	c.OnSTLBMiss()
	c.OnSTLBMiss()
	c.OnRetire(3500) // closes 3 windows
	if c.EnabledWindows+c.DisabledWindows != 3 {
		t.Errorf("closed %d windows, want 3", c.EnabledWindows+c.DisabledWindows)
	}
}

func TestControllerT1ZeroAlwaysOn(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 0, WindowInstr: 1000})
	c.OnRetire(5000)
	if !c.Enabled() {
		t.Error("T1<=0 should pin xPTP on")
	}
	if c.DisabledWindows != 0 {
		t.Error("no windows should be disabled with T1<=0")
	}
}

func TestControllerDefaultWindow(t *testing.T) {
	c := NewController(config.XPTPParams{T1: 1})
	c.OnSTLBMiss()
	c.OnSTLBMiss()
	c.OnRetire(999)
	before := c.EnabledWindows + c.DisabledWindows
	if before != 0 {
		t.Error("window should not close before 1000 instructions")
	}
	c.OnRetire(1)
	if c.EnabledWindows+c.DisabledWindows != 1 {
		t.Error("window should close at 1000 instructions")
	}
}

// Property: with no data-PTE blocks in play, xPTP's decisions are exactly
// LRU's — the paper's observation that xPTP "degenerates to LRU" when its
// protection never triggers (Section 4.3.1).
func TestXPTPEquivalentToLRUWithoutPTEs(t *testing.T) {
	x := NewXPTP(xptpParams())
	l := replacement.NewLRU()
	setX := cacheSet(8)
	setL := cacheSet(8)
	rng := uint64(77)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	for op := 0; op < 20000; op++ {
		acc := &arch.Access{Addr: uint64(next(64)) << 6, Kind: arch.Load}
		switch next(3) {
		case 0:
			vx := x.Victim(0, setX, acc)
			vl := l.Victim(0, setL, acc)
			if vx != vl {
				t.Fatalf("op %d: victims diverged (%d vs %d)", op, vx, vl)
			}
			setX.Tags[vx], setL.Tags[vl] = uint32(acc.Addr>>arch.BlockBits), uint32(acc.Addr>>arch.BlockBits)
			x.OnFill(0, setX, vx, acc)
			l.OnFill(0, setL, vl, acc)
		case 1:
			w := next(8)
			x.OnHit(0, setX, w, acc)
			l.OnHit(0, setL, w, acc)
		default:
			w := next(8)
			x.OnEvict(0, setX, w)
			l.OnEvict(0, setL, w)
		}
		for i := range setX.Stack {
			if setX.Stack[i] != setL.Stack[i] {
				t.Fatalf("op %d: stacks diverged at way %d", op, i)
			}
		}
	}
}
