package core

import (
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/tlb"
)

func itpParams() config.ITPParams { return config.ITPParams{N: 4, M: 8, FreqBits: 3} }

// newTLBSet returns a standalone TLB set of the given associativity,
// every way invalid and the stack in identity order.
func newTLBSet(ways int) *tlb.Set {
	set := &tlb.Set{Entries: make([]tlb.Entry, ways), Stack: make([]uint8, ways)}
	replacement.InitStack(set.Stack)
	return set
}

func fullSet(ways int) *tlb.Set {
	set := newTLBSet(ways)
	for i := range set.Entries {
		set.Entries[i].Valid = true
		set.Entries[i].VPN = uint64(100 + i)
	}
	return set
}

func instrReq() *tlb.Request { return &tlb.Request{Class: arch.InstrClass} }
func dataReq() *tlb.Request  { return &tlb.Request{Class: arch.DataClass} }

func TestITPInsertData(t *testing.T) {
	p := NewITP(itpParams())
	set := fullSet(12)
	set.Entries[5].Class = arch.DataClass
	p.OnFill(0, set, 5, dataReq())
	if int(set.Stack[5]) != 11 {
		t.Errorf("data insert at stack %d, want 11 (LRUpos)", set.Stack[5])
	}
	if !replacement.CheckStackInvariant(set.Stack) {
		t.Error("stack invariant broken")
	}
}

func TestITPInsertInstruction(t *testing.T) {
	p := NewITP(itpParams())
	set := fullSet(12)
	set.Entries[3].Class = arch.InstrClass
	set.Entries[3].Freq = 5 // stale value from previous occupant
	p.OnFill(0, set, 3, instrReq())
	if int(set.Stack[3]) != 4 {
		t.Errorf("instr insert at stack %d, want 4 (MRUpos-N)", set.Stack[3])
	}
	if set.Entries[3].Freq != 0 {
		t.Errorf("Freq = %d, want 0 on insertion", set.Entries[3].Freq)
	}
}

func TestITPInstructionPromotionLadder(t *testing.T) {
	p := NewITP(itpParams())
	set := fullSet(12)
	set.Entries[0].Class = arch.InstrClass
	p.OnFill(0, set, 0, instrReq())
	// Non-saturated hits stay at MRUpos-N and increment Freq.
	for i := 1; i <= 6; i++ {
		p.OnHit(0, set, 0, instrReq())
		if int(set.Stack[0]) != 4 {
			t.Fatalf("hit %d: stack %d, want 4", i, set.Stack[0])
		}
		if set.Entries[0].Freq != uint8(i) {
			t.Fatalf("hit %d: freq %d, want %d", i, set.Entries[0].Freq, i)
		}
	}
	// 7th hit saturates (3-bit max = 7).
	p.OnHit(0, set, 0, instrReq())
	if set.Entries[0].Freq != 7 {
		t.Fatalf("freq = %d, want 7", set.Entries[0].Freq)
	}
	// Saturated entry now promotes to MRUpos.
	p.OnHit(0, set, 0, instrReq())
	if set.Stack[0] != 0 {
		t.Errorf("saturated hit: stack %d, want 0 (MRUpos)", set.Stack[0])
	}
	if set.Entries[0].Freq != 7 {
		t.Errorf("freq should stay saturated, got %d", set.Entries[0].Freq)
	}
}

func TestITPDataPromotion(t *testing.T) {
	p := NewITP(itpParams())
	set := fullSet(12)
	set.Entries[2].Class = arch.DataClass
	p.OnFill(0, set, 2, dataReq())
	p.OnHit(0, set, 2, dataReq())
	// LRUpos + M with M=8 and 12 ways: stack position 11-8 = 3.
	if int(set.Stack[2]) != 3 {
		t.Errorf("data promotion to stack %d, want 3 (LRUpos+M)", set.Stack[2])
	}
}

func TestITPVictimIsLRU(t *testing.T) {
	p := NewITP(itpParams())
	set := fullSet(12)
	v := p.Victim(0, set, dataReq())
	if int(set.Stack[v]) != 11 {
		t.Errorf("victim at stack %d, want 11", set.Stack[v])
	}
	set.Entries[7].Valid = false
	if v := p.Victim(0, set, dataReq()); v != 7 {
		t.Errorf("victim = %d, want invalid way 7", v)
	}
}

// End-to-end through a real TLB: instruction translations should survive
// data-translation floods, which is iTP's entire purpose.
func TestITPProtectsInstructionsUnderDataFlood(t *testing.T) {
	stlb := tlb.New("stlb", 1, 12, NewITP(itpParams()))
	instrVA := arch.Addr(0x400000)
	stlb.Insert(instrVA, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	// Touch it a few times to build Freq.
	for i := 0; i < 8; i++ {
		stlb.Lookup(instrVA, 0, arch.InstrClass, 0)
	}
	// Flood with 100 distinct data translations.
	for i := 0; i < 100; i++ {
		stlb.Insert(arch.Addr(0x1000000+i*arch.PageSize4K), uint64(i), arch.PageBits4K, arch.DataClass, 0, 0)
	}
	if _, _, hit := stlb.Lookup(instrVA, 0, arch.InstrClass, 0); !hit {
		t.Error("iTP should keep the hot instruction translation resident")
	}
}

// The converse: under LRU the same flood evicts the instruction entry.
func TestLRUDoesNotProtectInstructions(t *testing.T) {
	stlb := tlb.New("stlb", 1, 12, tlb.NewLRU())
	instrVA := arch.Addr(0x400000)
	stlb.Insert(instrVA, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	for i := 0; i < 100; i++ {
		stlb.Insert(arch.Addr(0x1000000+i*arch.PageSize4K), uint64(i), arch.PageBits4K, arch.DataClass, 0, 0)
	}
	if _, _, hit := stlb.Lookup(instrVA, 0, arch.InstrClass, 0); hit {
		t.Error("LRU should have evicted the instruction translation")
	}
}

// Useless instruction entries must still age out (Section 4.1.1: "useless
// instruction translation entries can reach the LRUpos").
func TestITPColdInstructionsAgeOut(t *testing.T) {
	stlb := tlb.New("stlb", 1, 12, NewITP(itpParams()))
	cold := arch.Addr(0x400000)
	stlb.Insert(cold, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	// Insert 12 more instruction translations without ever touching cold.
	for i := 1; i <= 12; i++ {
		stlb.Insert(arch.Addr(0x400000+i*arch.PageSize4K), uint64(i), arch.PageBits4K, arch.InstrClass, 0, 0)
	}
	if _, _, hit := stlb.Lookup(cold, 0, arch.InstrClass, 0); hit {
		t.Error("cold instruction translation should age out")
	}
}

func TestITPSmallAssociativityClamps(t *testing.T) {
	// N=4 with a 2-way structure must clamp, not panic.
	p := NewITP(config.ITPParams{N: 4, M: 8, FreqBits: 3})
	set := fullSet(2)
	p.OnFill(0, set, 0, instrReq())
	if int(set.Stack[0]) >= len(set.Stack) {
		t.Error("insertion position not clamped")
	}
	p.OnHit(0, set, 1, dataReq())
	if !replacement.CheckStackInvariant(set.Stack) {
		t.Error("invariant broken on small set")
	}
}

func TestProbLRUAlwaysData(t *testing.T) {
	p := NewProbLRU(1.0, 42) // always evict data
	set := fullSet(4)
	set.Entries[0].Class = arch.InstrClass
	set.Entries[1].Class = arch.DataClass
	set.Entries[2].Class = arch.InstrClass
	set.Entries[3].Class = arch.DataClass
	for i := 0; i < 20; i++ {
		v := p.Victim(0, set, dataReq())
		if set.Entries[v].Class != arch.DataClass {
			t.Fatalf("P=1.0 evicted an instruction entry (way %d)", v)
		}
	}
}

func TestProbLRUAlwaysInstr(t *testing.T) {
	p := NewProbLRU(0.0, 42)
	set := fullSet(4)
	set.Entries[0].Class = arch.InstrClass
	set.Entries[1].Class = arch.DataClass
	for i := 0; i < 20; i++ {
		v := p.Victim(0, set, dataReq())
		if set.Entries[v].Class != arch.InstrClass {
			t.Fatalf("P=0 evicted a data entry (way %d)", v)
		}
	}
}

func TestProbLRUFallsBackWhenClassAbsent(t *testing.T) {
	p := NewProbLRU(1.0, 42)
	set := fullSet(4)
	for i := range set.Entries {
		set.Entries[i].Class = arch.InstrClass // no data entries at all
	}
	v := p.Victim(0, set, dataReq())
	if int(set.Stack[v]) != 3 {
		t.Errorf("fallback should evict overall LRU, got stack %d", set.Stack[v])
	}
}

func TestProbLRUVictimsEvictsLRUOfClass(t *testing.T) {
	p := NewProbLRU(1.0, 7)
	set := fullSet(4)
	set.Entries[0].Class = arch.DataClass
	set.Entries[1].Class = arch.DataClass
	set.Entries[2].Class = arch.InstrClass
	set.Entries[3].Class = arch.InstrClass
	// Make way 0 more recent than way 1.
	replacement.MoveToStackPos(set.Stack, 0, 0)
	v := p.Victim(0, set, dataReq())
	if v != 1 {
		t.Errorf("victim = %d, want LRU data way 1", v)
	}
}

func TestProbLRUSplitRoughlyMatchesP(t *testing.T) {
	p := NewProbLRU(0.8, 99)
	set := fullSet(8)
	for i := range set.Entries {
		if i%2 == 0 {
			set.Entries[i].Class = arch.DataClass
		} else {
			set.Entries[i].Class = arch.InstrClass
		}
	}
	dataEvicts := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		v := p.Victim(0, set, dataReq())
		if set.Entries[v].Class == arch.DataClass {
			dataEvicts++
		}
	}
	frac := float64(dataEvicts) / trials
	if frac < 0.75 || frac > 0.85 {
		t.Errorf("data eviction fraction = %.3f, want ~0.8", frac)
	}
}
