package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"itpsim/internal/arch"
	"itpsim/internal/replacement"
)

// TestEntrySize pins a TLB entry at 24 bytes: the two page numbers, the
// signature, then the six one-byte fields. Its stack position is one
// more byte in the TLB's stack array. The STLB alone holds 1,536.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 24 {
		t.Fatalf("tlb.Entry is %d bytes, want 24", n)
	}
}

// newSet returns a standalone set of the given associativity, every way
// invalid and the stack in identity order.
func newSet(ways int) *Set {
	s := &Set{Entries: make([]Entry, ways), Stack: make([]uint8, ways)}
	replacement.InitStack(s.Stack)
	return s
}

func TestNewPanicsOnBadSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-power-of-two sets")
		}
	}()
	New("bad", 3, 4, NewLRU())
}

func TestLookupMissThenHit(t *testing.T) {
	tl := New("dtlb", 16, 4, NewLRU())
	va := arch.Addr(0x12345678)
	if _, _, hit := tl.Lookup(va, 0, arch.DataClass, 0); hit {
		t.Fatal("empty TLB should miss")
	}
	tl.Insert(va, 0x999, arch.PageBits4K, arch.DataClass, 0, 0)
	ppn, bits, hit := tl.Lookup(va, 0, arch.DataClass, 0)
	if !hit || ppn != 0x999 || bits != arch.PageBits4K {
		t.Fatalf("lookup = (%#x,%d,%v)", ppn, bits, hit)
	}
	// Same page, different offset: still hits.
	if _, _, hit := tl.Lookup(va+100, 0, arch.DataClass, 0); !hit {
		t.Error("same-page lookup should hit")
	}
	// Different page: misses.
	if _, _, hit := tl.Lookup(va+arch.PageSize4K, 0, arch.DataClass, 0); hit {
		t.Error("next-page lookup should miss")
	}
}

func TestHugePageEntries(t *testing.T) {
	tl := New("stlb", 16, 4, NewLRU())
	va := arch.Addr(0x40000000)
	tl.Insert(va, 0x77, arch.PageBits2M, arch.DataClass, 0, 0)
	// Anywhere within the 2MB page hits.
	ppn, bits, hit := tl.Lookup(va+1<<20, 0, arch.DataClass, 0)
	if !hit || ppn != 0x77 || bits != arch.PageBits2M {
		t.Fatalf("2MB lookup = (%#x,%d,%v)", ppn, bits, hit)
	}
	if _, _, hit := tl.Lookup(va+arch.PageSize2M, 0, arch.DataClass, 0); hit {
		t.Error("next 2MB page should miss")
	}
}

func TestThreadIsolation(t *testing.T) {
	tl := New("stlb", 16, 4, NewLRU())
	va := arch.Addr(0x1000)
	tl.Insert(va, 0x1, arch.PageBits4K, arch.DataClass, 0, 0)
	if _, _, hit := tl.Lookup(va, 0, arch.DataClass, 1); hit {
		t.Error("thread 1 should not hit thread 0's entry")
	}
	if _, _, hit := tl.Lookup(va, 0, arch.DataClass, 0); !hit {
		t.Error("thread 0 should hit")
	}
}

func TestDuplicateInsertIsTouch(t *testing.T) {
	tl := New("stlb", 2, 4, NewLRU())
	va := arch.Addr(0x1000)
	tl.Insert(va, 0x1, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Insert(va, 0x1, arch.PageBits4K, arch.DataClass, 0, 0)
	instr, data := tl.Occupancy()
	if instr+data != 1 {
		t.Errorf("duplicate insert created %d entries", instr+data)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	tl := New("t", 1, 4, NewLRU()) // one set, 4 ways
	// Insert 4 pages mapping to the same set.
	for i := 0; i < 4; i++ {
		tl.Insert(arch.Addr(i)<<arch.PageBits4K, uint64(i), arch.PageBits4K, arch.DataClass, 0, 0)
	}
	// Touch page 0 so page 1 is LRU.
	tl.Lookup(0, 0, arch.DataClass, 0)
	// Next insert evicts page 1.
	tl.Insert(arch.Addr(4)<<arch.PageBits4K, 4, arch.PageBits4K, arch.DataClass, 0, 0)
	if _, _, hit := tl.Lookup(arch.Addr(1)<<arch.PageBits4K, 0, arch.DataClass, 0); hit {
		t.Error("page 1 should have been evicted")
	}
	if _, _, hit := tl.Lookup(0, 0, arch.DataClass, 0); !hit {
		t.Error("page 0 should survive")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	tl := New("t", 1, 2, NewLRU())
	tl.Insert(0, 0, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Insert(1<<arch.PageBits4K, 1, arch.PageBits4K, arch.DataClass, 0, 0)
	// Page 0 is LRU; Peek must not promote it.
	if _, _, _, ok := tl.Peek(0, 0); !ok {
		t.Fatal("Peek should find page 0")
	}
	tl.Insert(2<<arch.PageBits4K, 2, arch.PageBits4K, arch.DataClass, 0, 0)
	if _, _, _, ok := tl.Peek(0, 0); ok {
		t.Error("page 0 should have been evicted despite Peek probe")
	}
}

func TestOccupancyByClass(t *testing.T) {
	tl := New("t", 16, 4, NewLRU())
	tl.Insert(0x1000, 1, arch.PageBits4K, arch.InstrClass, 0, 0)
	tl.Insert(0x2000, 2, arch.PageBits4K, arch.DataClass, 0, 0)
	tl.Insert(0x3000, 3, arch.PageBits4K, arch.DataClass, 0, 0)
	i, d := tl.Occupancy()
	if i != 1 || d != 2 {
		t.Errorf("occupancy = (%d,%d), want (1,2)", i, d)
	}
}

// splitSTLB builds a split STLB as the machine holds one: an STLB-I and
// an STLB-D half of equal geometry, each with its own policy, indexed by
// translation class. Both halves take their entries from one pool key.
func splitSTLB(sets, ways int, pi, pd Policy) [2]*TLB {
	var s [2]*TLB
	s[arch.InstrClass] = New("STLB-I", sets, ways, pi)
	s[arch.DataClass] = New("STLB-D", sets, ways, pd)
	return s
}

// TestSplitRouting: the halves of a split STLB hold separate entries,
// even when one of them takes a released TLB's array. A translation
// inserted through the instruction half is invisible to the data half,
// and with both halves full of the same pages each returns its own
// class's frames.
func TestSplitRouting(t *testing.T) {
	const sets, ways = 8, 4
	dirty := New("dirty", sets, ways, NewLRU())
	tlbTraffic(dirty, sets*ways)
	dirty.Release()

	s := splitSTLB(sets, ways, NewLRU(), NewLRU())
	defer s[arch.InstrClass].Release()
	defer s[arch.DataClass].Release()
	if &s[arch.InstrClass].store.entries[0] == &s[arch.DataClass].store.entries[0] {
		t.Fatal("both halves share one entry array")
	}
	frame := [2]uint64{arch.InstrClass: 0x1000, arch.DataClass: 0x2000}
	va := arch.Addr(0x5000)
	s[arch.InstrClass].Insert(va, frame[arch.InstrClass]+5, arch.PageBits4K, arch.InstrClass, 0, 0)
	if _, _, hit := s[arch.DataClass].Lookup(va, 0, arch.DataClass, 0); hit {
		t.Error("data lookup should not see instruction-side entry")
	}
	if _, _, hit := s[arch.InstrClass].Lookup(va, 0, arch.InstrClass, 0); !hit {
		t.Error("instruction lookup should hit")
	}

	for _, class := range []arch.Class{arch.InstrClass, arch.DataClass} {
		for page := uint64(0); page < sets*ways; page++ {
			s[class].Insert(arch.Addr(page)<<arch.PageBits4K, frame[class]+page, arch.PageBits4K, class, 0, 0)
		}
	}
	for _, class := range []arch.Class{arch.InstrClass, arch.DataClass} {
		var occ [2]int
		occ[arch.InstrClass], occ[arch.DataClass] = s[class].Occupancy()
		if occ[class] != sets*ways || occ[1-class] != 0 {
			t.Errorf("%s occupancy (instr,data) = %v, want %d entries of its own class only", s[class].Name(), occ, sets*ways)
		}
		for page := uint64(0); page < sets*ways; page++ {
			ppn, _, hit := s[class].Lookup(arch.Addr(page)<<arch.PageBits4K, 0, class, 0)
			if !hit || ppn != frame[class]+page {
				t.Fatalf("%s page %d = (%#x,%v), want (%#x,true)", s[class].Name(), page, ppn, hit, frame[class]+page)
			}
		}
	}
}

// TestSplitWithDistinctPolicies: each half of a split STLB runs its own
// policy, as the machine gives each half its own CHiRP. Fills and hits
// through the instruction half train only the instruction half's
// policy and leave the data half empty.
func TestSplitWithDistinctPolicies(t *testing.T) {
	const sets, ways = 4, 4
	pi, pd := NewCHiRP(ways), NewCHiRP(ways)
	s := splitSTLB(sets, ways, pi, pd)
	defer s[arch.InstrClass].Release()
	defer s[arch.DataClass].Release()
	for i := 0; i < 8; i++ {
		va := arch.Addr(i) << arch.PageBits4K
		s[arch.InstrClass].Insert(va, uint64(i), arch.PageBits4K, arch.InstrClass, 0, 0)
		if _, _, hit := s[arch.InstrClass].Lookup(va, 0, arch.InstrClass, 0); !hit {
			t.Fatalf("instruction half misses page %d just inserted", i)
		}
	}
	ii, id := s[arch.InstrClass].Occupancy()
	di, dd := s[arch.DataClass].Occupancy()
	if ii+id != 8 || di+dd != 0 {
		t.Errorf("instruction inserts leaked: instr side %d/%d, data side %d/%d", ii, id, di, dd)
	}
	trained := func(c *CHiRP) int {
		n := 0
		for _, ctr := range c.table {
			if ctr != chirpCtrInit {
				n++
			}
		}
		return n
	}
	if trained(pi) == 0 {
		t.Error("instruction half's CHiRP was not trained by its hits")
	}
	if n := trained(pd); n != 0 {
		t.Errorf("data half's CHiRP has %d trained counters, want 0", n)
	}
}

// TestEntriesCount: a 128×12 TLB holds 1536 translations. Pages
// 0..1535 fill every way of every set, and one more evicts rather than
// growing the TLB.
func TestEntriesCount(t *testing.T) {
	tl := New("t", 128, 12, NewLRU())
	for page := uint64(0); page <= 1536; page++ {
		tl.Insert(arch.Addr(page)<<arch.PageBits4K, page, arch.PageBits4K, arch.DataClass, 0, 0)
		want := min(int(page)+1, 1536)
		if i, d := tl.Occupancy(); i+d != want {
			t.Fatalf("after page %d: %d entries, want %d", page, i+d, want)
		}
	}
	if _, _, _, ok := tl.Peek(0, 0); ok {
		t.Error("page 1536 should have evicted page 0, the LRU entry of set 0")
	}
}

// Property: random moves made by the stack kernel through one set's view
// of a 2-set, 12-way TLB keep that set's stack a permutation with the
// moved way at its new position, and leave the other set, whose bytes
// sit beside it in the same flat array, as it was.
func TestStackHelpersProperty(t *testing.T) {
	tl := New("t", 2, 12, NewLRU())
	defer tl.Release()
	f := func(ops []uint16) bool {
		for _, op := range ops {
			si := int(op & 1)
			way := int(op>>1) % 12
			pos := int(op>>8) % 12
			var other [12]uint8
			copy(other[:], tl.sets[1-si].Stack)
			replacement.MoveToStackPos(tl.sets[si].Stack, way, pos)
			if !replacement.CheckStackInvariant(tl.sets[si].Stack) ||
				int(tl.sets[si].Stack[way]) != pos ||
				[12]uint8(tl.sets[1-si].Stack) != other {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckStackInvariantRejectsAndAllocatesNothing runs the stack check
// on a TLB's own set view, from one way up to the widest associativity
// config admits (128), over a duplicate position and positions past the
// set up to the largest uint8, and holds it at zero allocations:
// (*TLB).AuditState runs it on every set of every TLB on every audit
// pass.
func TestCheckStackInvariantRejectsAndAllocatesNothing(t *testing.T) {
	for _, ways := range []int{1, 4, 12, 128} {
		tl := New("t", 1, ways, NewLRU())
		stack := tl.sets[0].Stack
		replacement.MoveToStackPos(stack, ways-1, 0)
		if !replacement.CheckStackInvariant(stack) {
			t.Errorf("ways=%d: permutation rejected", ways)
		}
		if n := testing.AllocsPerRun(100, func() { replacement.CheckStackInvariant(stack) }); n != 0 {
			t.Errorf("ways=%d: %v allocations per check, want 0", ways, n)
		}
		for _, bad := range []int{ways, 64, 128, 255} {
			if bad >= ways {
				stack[0] = uint8(bad)
				if replacement.CheckStackInvariant(stack) {
					t.Errorf("ways=%d: out-of-range position %d accepted", ways, bad)
				}
			}
		}
		if ways > 1 {
			stack[0] = stack[1]
			if replacement.CheckStackInvariant(stack) {
				t.Errorf("ways=%d: duplicate position accepted", ways)
			}
		}
		tl.Release()
	}
}

// Property: under random insert/lookup traffic the TLB never stores two
// entries for the same (vpn,size,thread) and stacks stay permutations.
func TestTLBConsistencyUnderTraffic(t *testing.T) {
	tl := New("t", 8, 4, NewLRU())
	rng := rand.New(rand.NewSource(11))
	for op := 0; op < 20000; op++ {
		page := uint64(rng.Intn(64))
		va := arch.Addr(page) << arch.PageBits4K
		thread := uint8(rng.Intn(2))
		if rng.Intn(2) == 0 {
			tl.Insert(va, page, arch.PageBits4K, arch.Class(rng.Intn(2)), 0, thread)
		} else {
			tl.Lookup(va, 0, arch.DataClass, thread)
		}
	}
	type key struct {
		vpn    uint64
		bits   uint8
		thread uint8
	}
	seen := map[key]bool{}
	for si, set := range tl.sets {
		if !replacement.CheckStackInvariant(set.Stack) {
			t.Fatalf("set %d stack invariant broken", si)
		}
		for _, e := range set.Entries {
			if !e.Valid {
				continue
			}
			k := key{e.VPN, e.PageBits, e.Thread}
			if seen[k] {
				t.Fatalf("duplicate entry for %+v", k)
			}
			seen[k] = true
		}
	}
}

func TestCHiRPInsertionDependsOnConfidence(t *testing.T) {
	c := NewCHiRP(8)
	set := newSet(8)
	for i := range set.Entries {
		set.Entries[i].Valid = true
	}
	req := &Request{VPN: 42, Thread: 0}
	sig := c.signature(0, 42)

	c.table[sig] = chirpThreshold // confident
	c.OnFill(0, set, 3, req)
	if set.Stack[3] != 0 {
		t.Errorf("confident fill at stack %d, want 0", set.Stack[3])
	}

	c.table[sig] = 0 // dead signature
	c.OnFill(0, set, 5, req)
	if int(set.Stack[5]) != c.lowInsertPos {
		t.Errorf("dead fill at stack %d, want %d", set.Stack[5], c.lowInsertPos)
	}
}

func TestCHiRPTraining(t *testing.T) {
	c := NewCHiRP(8)
	set := newSet(8)
	for i := range set.Entries {
		set.Entries[i].Valid = true
	}
	req := &Request{VPN: 7}
	c.OnFill(0, set, 0, req)
	sig := set.Entries[0].Sig
	before := c.table[sig]
	c.OnHit(0, set, 0, req)
	if c.table[sig] != before+1 {
		t.Error("hit should raise confidence")
	}
	c.OnHit(0, set, 0, req)
	if c.table[sig] != before+1 {
		t.Error("second hit on same residency should not retrain")
	}
	// Fill-then-evict with no reuse lowers confidence.
	c.OnFill(0, set, 1, req)
	sig1 := set.Entries[1].Sig
	mid := c.table[sig1]
	c.OnEvict(0, set, 1)
	if c.table[sig1] != mid-1 {
		t.Error("dead eviction should lower confidence")
	}
}

func TestCHiRPHistoryChangesSignature(t *testing.T) {
	c := NewCHiRP(8)
	s1 := c.signature(0, 42)
	c.Observe(0, 0x400000)
	c.Observe(0, 0x400100)
	s2 := c.signature(0, 42)
	if s1 == s2 {
		t.Error("history should alter the signature (hash collision unlikely)")
	}
}

func TestCHiRPCounterSaturation(t *testing.T) {
	c := NewCHiRP(8)
	set := newSet(8)
	set.Entries[0].Valid = true
	req := &Request{VPN: 9}
	for i := 0; i < 20; i++ {
		c.OnFill(0, set, 0, req)
		c.OnHit(0, set, 0, req)
	}
	if c.table[set.Entries[0].Sig] > chirpCtrMax {
		t.Error("counter exceeded max")
	}
	for i := 0; i < 20; i++ {
		c.OnFill(0, set, 0, req)
		c.OnEvict(0, set, 0)
	}
	if c.table[set.Entries[0].Sig] != 0 {
		t.Errorf("counter should saturate at 0, got %d", c.table[set.Entries[0].Sig])
	}
}
