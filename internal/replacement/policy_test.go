package replacement

import (
	"math/rand"
	"testing"
	"unsafe"

	"itpsim/internal/arch"
)

// newSet returns an empty standalone set of the given associativity,
// with no columns.
func newSet(ways int) *Set {
	s := &Set{Tags: make([]uint32, ways), Stack: make([]uint8, ways), Lines: make([]Line, ways)}
	InitSet(s)
	return s
}

// newPolicySet returns an empty standalone set with the columns p asks
// for, as a cache under p would hand it.
func newPolicySet(p Policy, ways int) *Set {
	s := newSet(ways)
	cols := ColumnsOf(p)
	if cols&SigColumn != 0 {
		s.Sigs = make([]uint16, ways)
	}
	if cols&ETAColumn != 0 {
		s.ETAs = make([]uint64, ways)
	}
	return s
}

func fillAll(set *Set) {
	for i := range set.Tags {
		set.Tags[i] = uint32(1000 + i)
	}
}

// TestLineSize pins a cache way's metadata at 8 bytes: with its 4-byte
// tag and 1-byte stack position a way costs 13 bytes under a policy
// that keeps no columns, and every cache of every machine holds
// sets×ways of them.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 8 {
		t.Fatalf("replacement.Line is %d bytes, want 8", n)
	}
}

// TestLineFlags: each of the six packed flags sets and clears only its
// own bit.
func TestLineFlags(t *testing.T) {
	flags := []struct {
		name string
		get  func(*Line) bool
		set  func(*Line, bool)
	}{
		{"Dirty", (*Line).Dirty, (*Line).SetDirty},
		{"IsPTE", (*Line).IsPTE, (*Line).SetPTE},
		{"IsDataPTE", (*Line).IsDataPTE, (*Line).SetDataPTE},
		{"STLBMiss", (*Line).STLBMiss, (*Line).SetSTLBMiss},
		{"Prefetched", (*Line).Prefetched, (*Line).SetPrefetched},
		{"Reused", (*Line).Reused, (*Line).SetReused},
	}
	for _, base := range []bool{false, true} {
		for i, f := range flags {
			var l Line
			for _, g := range flags {
				g.set(&l, base)
			}
			f.set(&l, !base)
			for j, g := range flags {
				if want := base != (i == j); g.get(&l) != want {
					t.Errorf("others %v, %s set to %v: %s reads %v", base, f.name, !base, g.name, !want)
				}
			}
		}
	}
}

func TestInitSetInvariant(t *testing.T) {
	for _, ways := range []int{1, 2, 8, 12, 16} {
		set := newSet(ways)
		if !CheckStackInvariant(set.Stack) {
			t.Errorf("ways=%d: InitSet broke invariant", ways)
		}
	}
}

func TestInvalidWayPrefersDeepest(t *testing.T) {
	set := newSet(4)
	// all invalid: deepest stack position is way with Stack==3.
	w := InvalidWay(set)
	if set.Stack[w] != 3 {
		t.Errorf("InvalidWay picked stack pos %d, want 3", set.Stack[w])
	}
	fillAll(set)
	if InvalidWay(set) != -1 {
		t.Error("full set should report no invalid way")
	}
	set.Tags[1] = NoTag
	if got := InvalidWay(set); got != 1 {
		t.Errorf("InvalidWay = %d, want 1", got)
	}
}

func TestLRUBehaviour(t *testing.T) {
	p := NewLRU()
	set := newSet(4)
	fillAll(set)
	acc := &arch.Access{Kind: arch.Load}
	// Touch ways in order 0,1,2,3: way 0 becomes LRU.
	for w := 0; w < 4; w++ {
		p.OnHit(0, set, w, acc)
	}
	if v := p.Victim(0, set, acc); v != 0 {
		t.Errorf("LRU victim = %d, want 0", v)
	}
	p.OnFill(0, set, 0, acc)
	if set.Stack[0] != 0 {
		t.Error("fill should move to MRU")
	}
	if v := p.Victim(0, set, acc); v != 1 {
		t.Errorf("next victim = %d, want 1", v)
	}
}

func TestLRUPrefersInvalid(t *testing.T) {
	p := NewLRU()
	set := newSet(4)
	fillAll(set)
	set.Tags[2] = NoTag
	if v := p.Victim(0, set, nil); v != 2 {
		t.Errorf("victim = %d, want invalid way 2", v)
	}
}

func TestRandomDeterministic(t *testing.T) {
	set := newSet(8)
	fillAll(set)
	a := NewRandom(42)
	b := NewRandom(42)
	for i := 0; i < 50; i++ {
		if a.Victim(0, set, nil) != b.Victim(0, set, nil) {
			t.Fatal("same seed should give same victims")
		}
	}
}

func TestRandomCoversWays(t *testing.T) {
	set := newSet(4)
	fillAll(set)
	p := NewRandom(7)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[p.Victim(0, set, nil)] = true
	}
	if len(seen) != 4 {
		t.Errorf("random victims covered %d/4 ways", len(seen))
	}
}

func TestSRRIP(t *testing.T) {
	p := NewSRRIP()
	set := newSet(4)
	fillAll(set)
	acc := &arch.Access{Kind: arch.Load, PC: 100}
	for w := range set.Lines {
		p.OnFill(0, set, w, acc)
	}
	// All at long (2); victim search ages everyone to 3 and picks way 0.
	if v := p.Victim(0, set, acc); v != 0 {
		t.Errorf("victim = %d, want 0", v)
	}
	if set.Lines[1].RRPV != rrpvMax {
		t.Errorf("aging did not raise RRPVs: %d", set.Lines[1].RRPV)
	}
	p.OnHit(0, set, 2, acc)
	if set.Lines[2].RRPV != rrpvNear {
		t.Error("hit should reset RRPV")
	}
	// Now way 2 is protected; victim must not be 2.
	if v := p.Victim(0, set, acc); v == 2 {
		t.Error("protected way evicted")
	}
}

func TestBRRIPMostlyDistant(t *testing.T) {
	p := NewBRRIP(1)
	set := newSet(4)
	fillAll(set)
	acc := &arch.Access{}
	distant := 0
	for i := 0; i < 1000; i++ {
		p.OnFill(0, set, 0, acc)
		if set.Lines[0].RRPV == rrpvMax {
			distant++
		}
	}
	if distant < 900 {
		t.Errorf("BRRIP distant insertions = %d/1000, want >900", distant)
	}
	if distant == 1000 {
		t.Error("BRRIP should occasionally insert long")
	}
}

func TestDuelLeadersDisjoint(t *testing.T) {
	d := newDuel(1024)
	for s := range d.leaderA {
		if d.leaderB[s] {
			t.Fatalf("set %d leads both policies", s)
		}
	}
	if len(d.leaderA) == 0 || len(d.leaderB) == 0 {
		t.Fatal("no leader sets")
	}
}

func TestDuelPSELMovement(t *testing.T) {
	d := newDuel(1024)
	var aLeader, bLeader int
	for s := range d.leaderA {
		aLeader = s
		break
	}
	for s := range d.leaderB {
		bLeader = s
		break
	}
	start := d.psel
	d.onMiss(aLeader)
	if d.psel != start+1 {
		t.Error("miss in A-leader should increment PSEL")
	}
	d.onMiss(bLeader)
	if d.psel != start {
		t.Error("miss in B-leader should decrement PSEL")
	}
	// Saturate low: followers should use A.
	for i := 0; i < 2000; i++ {
		d.onMiss(bLeader)
	}
	if d.psel != 0 {
		t.Errorf("PSEL should saturate at 0, got %d", d.psel)
	}
	follower := 3 // not a leader with stride 16
	if d.leaderA[follower] || d.leaderB[follower] {
		t.Skip("set 3 unexpectedly a leader")
	}
	if !d.useA(follower) {
		t.Error("PSEL=0 followers should use policy A")
	}
}

func TestDRRIPFollowsWinner(t *testing.T) {
	p := NewDRRIP(64, 3)
	set := newSet(4)
	fillAll(set)
	acc := &arch.Access{}
	// Force PSEL to favour SRRIP (policy A) by missing in B leaders.
	var bLeader int
	for s := range p.duel.leaderB {
		bLeader = s
		break
	}
	for i := 0; i < 2000; i++ {
		p.duel.onMiss(bLeader)
	}
	follower := -1
	for s := 0; s < 64; s++ {
		if !p.duel.leaderA[s] && !p.duel.leaderB[s] {
			follower = s
			break
		}
	}
	if follower == -1 {
		t.Fatal("no follower set found")
	}
	p.OnFill(follower, set, 0, acc)
	if set.Lines[0].RRPV != rrpvLong {
		t.Errorf("follower should use SRRIP insertion, got RRPV %d", set.Lines[0].RRPV)
	}
}

func TestTDRRIPProtectsPTEs(t *testing.T) {
	p := NewTDRRIP(64, 9)
	set := newSet(4)
	fillAll(set)
	acc := &arch.Access{Kind: arch.PTW}
	set.Lines[1].SetPTE(true)
	p.OnFill(0, set, 1, acc)
	if set.Lines[1].RRPV != rrpvNear {
		t.Errorf("PTE insertion RRPV = %d, want %d", set.Lines[1].RRPV, rrpvNear)
	}
	// Demand block that missed the STLB inserts distant.
	set.Lines[2].SetSTLBMiss(true)
	set.Lines[2].SetPTE(false)
	p.OnFill(0, set, 2, &arch.Access{Kind: arch.Load})
	if set.Lines[2].RRPV != rrpvMax {
		t.Errorf("STLB-miss insertion RRPV = %d, want %d", set.Lines[2].RRPV, rrpvMax)
	}
	// Victim prefers the STLB-miss block over the PTE block.
	if v := p.Victim(0, set, &arch.Access{}); v != 2 {
		t.Errorf("victim = %d, want the STLB-miss block 2", v)
	}
}

func TestTDRRIPAllPTEsStillEvicts(t *testing.T) {
	p := NewTDRRIP(64, 9)
	set := newSet(4)
	fillAll(set)
	for i := range set.Lines {
		set.Lines[i].SetPTE(true)
		set.Lines[i].RRPV = rrpvNear
	}
	v := p.Victim(0, set, &arch.Access{})
	if v < 0 || v >= 4 {
		t.Fatalf("victim out of range: %d", v)
	}
}

func TestSHiPLearnsDeadSignatures(t *testing.T) {
	p := NewSHiP(64, 5)
	set := newPolicySet(p, 4)
	fillAll(set)
	deadPC := uint64(0xdead00)
	acc := &arch.Access{Kind: arch.Load, PC: deadPC}
	// Repeatedly fill and evict without reuse: counter should reach 0.
	for i := 0; i < 10; i++ {
		p.OnFill(0, set, 0, acc)
		p.OnEvict(0, set, 0)
	}
	p.OnFill(0, set, 0, acc)
	if set.Lines[0].RRPV != rrpvMax {
		t.Errorf("dead signature should insert distant, got RRPV %d", set.Lines[0].RRPV)
	}
	// Now train reuse: hit after fill.
	for i := 0; i < 10; i++ {
		p.OnFill(0, set, 0, acc)
		p.OnHit(0, set, 0, acc)
	}
	p.OnFill(0, set, 0, acc)
	if set.Lines[0].RRPV != rrpvLong {
		t.Errorf("reused signature should insert long, got RRPV %d", set.Lines[0].RRPV)
	}
}

func TestSHiPHitTrainsOnce(t *testing.T) {
	p := NewSHiP(64, 5)
	set := newPolicySet(p, 2)
	fillAll(set)
	acc := &arch.Access{PC: 0x1234}
	p.OnFill(0, set, 0, acc)
	sig := set.Sigs[0]
	before := p.shct[sig]
	p.OnHit(0, set, 0, acc)
	p.OnHit(0, set, 0, acc)
	p.OnHit(0, set, 0, acc)
	if p.shct[sig] != before+1 {
		t.Errorf("multiple hits should train once: %d -> %d", before, p.shct[sig])
	}
}

// mjSet is the set the Mockingjay tests use: not set 0, so a policy
// that indexed its ETAs by set number would read or write another set's.
const mjSet = 5

func TestMockingjayVictimIsFarthest(t *testing.T) {
	p := NewMockingjay(64, 4)
	set := newPolicySet(p, 4)
	fillAll(set)
	p.clock = 100
	copy(set.ETAs, []uint64{110, 500, 120, 105}) // way 1 is farthest in the future
	if v := p.Victim(mjSet, set, nil); v != 1 {
		t.Errorf("victim = %d, want 1 (farthest ETA)", v)
	}
}

func TestMockingjayPrefersOverdue(t *testing.T) {
	p := NewMockingjay(64, 4)
	set := newPolicySet(p, 4)
	fillAll(set)
	p.clock = 10000
	// Way 2 is long overdue (predicted reuse never happened).
	copy(set.ETAs, []uint64{10010, 10020, 100, 10005})
	if v := p.Victim(mjSet, set, nil); v != 2 {
		t.Errorf("victim = %d, want overdue way 2", v)
	}
}

// TestMockingjayETAIndexedByWay: a fill and a hit write the ETA and
// signature of exactly the way they touch in the set's columns, and
// nothing else.
func TestMockingjayETAIndexedByWay(t *testing.T) {
	p := NewMockingjay(64, 4)
	set := newPolicySet(p, 4)
	fillAll(set)
	acc := &arch.Access{PC: 0x4040}
	p.OnFill(mjSet, set, 2, acc)
	p.OnHit(mjSet, set, 3, acc)
	sig := p.signature(acc.PC)
	pred := uint64(p.pred[sig])
	for w := range set.ETAs {
		wantETA, wantSig := uint64(0), uint16(0)
		switch w {
		case 2:
			wantETA, wantSig = 1+pred, sig
		case 3:
			wantETA, wantSig = 2+pred, sig
		}
		if set.ETAs[w] != wantETA || set.Sigs[w] != wantSig {
			t.Errorf("way %d: ETA %d, signature %#x; want %d, %#x", w, set.ETAs[w], set.Sigs[w], wantETA, wantSig)
		}
	}
}

func TestMockingjayTrains(t *testing.T) {
	p := NewMockingjay(64, 4)
	sig := p.signature(0xabc)
	start := p.pred[sig]
	// Train toward a small reuse distance.
	for i := 0; i < 50; i++ {
		p.train(sig, 10)
	}
	if p.pred[sig] >= start {
		t.Errorf("training down failed: %d -> %d", start, p.pred[sig])
	}
	for i := 0; i < 200; i++ {
		p.train(sig, -1) // scans
	}
	if p.pred[sig] < p.maxRD/2 {
		t.Errorf("scan training should push prediction up: %d", p.pred[sig])
	}
}

func TestMockingjaySamplerBounded(t *testing.T) {
	p := NewMockingjay(64, 4)
	for i := 0; i < 3*mjSamplerCap; i++ {
		p.clock++
		p.sample(0, uint32(i)*64, uint64(i))
	}
	if p.samplerLen > mjSamplerCap {
		t.Errorf("sampler grew to %d (> %d)", p.samplerLen, mjSamplerCap)
	}
}

func TestMockingjaySamplerObservesReuse(t *testing.T) {
	p := NewMockingjay(64, 4)
	pc := uint64(0x4040)
	sig := p.signature(pc)
	p.clock = 1
	p.sample(0, 0x1000, pc)
	p.clock = 21
	p.sample(0, 0x1000, pc) // reuse distance 20
	want := p.maxRD/2 + (20-p.maxRD/2)/4
	if p.pred[sig] != want {
		t.Errorf("pred = %d, want %d", p.pred[sig], want)
	}
}

func TestPTPProtectsAllPTEs(t *testing.T) {
	p := NewPTP()
	set := newSet(4)
	fillAll(set)
	set.Lines[0].SetPTE(true)
	set.Lines[0].SetDataPTE(true)
	set.Lines[3].SetPTE(true)
	// Recency order: touch 1 then 2 → way at stack bottom among non-PTE.
	acc := &arch.Access{}
	p.OnHit(0, set, 2, acc)
	p.OnHit(0, set, 1, acc)
	v := p.Victim(0, set, acc)
	if set.Lines[v].IsPTE() {
		t.Errorf("PTP evicted a PTE block (way %d)", v)
	}
	if v != 2 {
		t.Errorf("victim = %d, want LRU non-PTE way 2", v)
	}
}

func TestPTPAllPTEFallsBackToLRU(t *testing.T) {
	p := NewPTP()
	set := newSet(4)
	fillAll(set)
	for i := range set.Lines {
		set.Lines[i].SetPTE(true)
	}
	v := p.Victim(0, set, nil)
	if int(set.Stack[v]) != 3 {
		t.Errorf("all-PTE set should evict LRU, got stack %d", set.Stack[v])
	}
}

func TestFromName(t *testing.T) {
	names := []string{"lru", "random", "srrip", "brrip", "drrip", "ship", "mockingjay", "ptp", "tdrrip"}
	for _, n := range names {
		p, err := FromName(n, 64, 8, 1)
		if err != nil {
			t.Errorf("FromName(%q): %v", n, err)
			continue
		}
		if p.Name() != n {
			t.Errorf("FromName(%q).Name() = %q", n, p.Name())
		}
	}
	if _, err := FromName("belady", 64, 8, 1); err == nil {
		t.Error("unknown policy should error")
	}
}

// Property: every policy returns a victim inside the set and never panics
// under random operation sequences.
func TestPoliciesRobustUnderRandomOps(t *testing.T) {
	names := []string{"lru", "random", "srrip", "brrip", "drrip", "ship", "mockingjay", "hawkeye", "ptp", "tdrrip", "tship", "emissary"}
	for _, n := range names {
		p, err := FromName(n, 64, 8, 123)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(99))
		sets := make([]*Set, 64)
		for i := range sets {
			sets[i] = newPolicySet(p, 8)
		}
		for op := 0; op < 5000; op++ {
			si := rng.Intn(64)
			set := sets[si]
			acc := &arch.Access{
				PC:       uint64(rng.Intn(1000)) * 4,
				Kind:     arch.Kind(rng.Intn(4)),
				Class:    arch.Class(rng.Intn(2)),
				IsPTE:    rng.Intn(4) == 0,
				STLBMiss: rng.Intn(4) == 0,
			}
			v := p.Victim(si, set, acc)
			if v < 0 || v >= 8 {
				t.Fatalf("%s: victim %d out of range", n, v)
			}
			p.OnEvict(si, set, v)
			set.Tags[v] = uint32(rng.Intn(500))
			set.Lines[v].SetPTE(acc.IsPTE)
			set.Lines[v].SetDataPTE(acc.IsPTE && acc.Class == arch.DataClass)
			set.Lines[v].SetSTLBMiss(acc.STLBMiss)
			set.Lines[v].SetReused(false)
			p.OnFill(si, set, v, acc)
			if rng.Intn(2) == 0 {
				p.OnHit(si, set, rng.Intn(8), acc)
			}
			if !CheckStackInvariant(set.Stack) {
				t.Fatalf("%s: stack invariant broken at op %d", n, op)
			}
		}
	}
}
