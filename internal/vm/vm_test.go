package vm

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"itpsim/internal/arch"
)

func newPT(huge float64) *PageTable {
	return NewPageTable(NewPhysAlloc(8<<30), huge, 1)
}

func TestAllocAlignment(t *testing.T) {
	a := NewPhysAlloc(1 << 30)
	p1 := a.Alloc(arch.PageBits4K)
	if p1&(arch.PageSize4K-1) != 0 {
		t.Errorf("4K page not aligned: %#x", p1)
	}
	p2 := a.Alloc(arch.PageBits2M)
	if p2&(arch.PageSize2M-1) != 0 {
		t.Errorf("2M page not aligned: %#x", p2)
	}
	if p2 <= p1 {
		t.Error("bump allocator went backwards")
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	a := NewPhysAlloc(4 << 20)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on exhaustion")
		}
	}()
	for i := 0; i < 10000; i++ {
		a.Alloc(arch.PageBits4K)
	}
}

// TestPhysAllocFitsThirtyTwoBits: the machine's memory, and the largest
// size whose last block number stays below the cache's empty-way tag,
// are accepted; one byte more, or a size whose 4KB frame numbers pass
// 32 bits, panics.
func TestPhysAllocFitsThirtyTwoBits(t *testing.T) {
	const maxSize = (1<<32 - 1) << arch.BlockBits
	NewPhysAlloc(arch.PhysMemBytes)
	NewPhysAlloc(maxSize)
	for _, size := range []uint64{maxSize + 1, 1<<44 + arch.PageSize4K} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPhysAlloc(%#x) did not panic", size)
				}
			}()
			NewPhysAlloc(size)
		}()
	}
}

func TestTranslateStable(t *testing.T) {
	pt := newPT(0)
	va := arch.Addr(0x7f0012345678)
	t1 := pt.Translate(va)
	t2 := pt.Translate(va)
	if t1.PPN != t2.PPN || t1.PageBits != t2.PageBits {
		t.Fatal("translation not stable across calls")
	}
	if t1.PageBits != arch.PageBits4K {
		t.Errorf("PageBits = %d, want 4K", t1.PageBits)
	}
	if t1.NumSteps != 5 {
		t.Errorf("NumSteps = %d, want 5 for 4KB page", t1.NumSteps)
	}
}

func TestTranslateWalkStructure(t *testing.T) {
	pt := newPT(0)
	tr := pt.Translate(0x12345678)
	// Levels descend 5..1.
	for i := 0; i < tr.NumSteps; i++ {
		if tr.Steps[i].Level != 5-i {
			t.Errorf("step %d at level %d, want %d", i, tr.Steps[i].Level, 5-i)
		}
		if tr.Steps[i].PTEAddr%8 != 0 {
			t.Errorf("PTE address %#x not 8-byte aligned", tr.Steps[i].PTEAddr)
		}
	}
}

func TestDistinctPagesGetDistinctFrames(t *testing.T) {
	pt := newPT(0)
	a := pt.Translate(0x1000)
	b := pt.Translate(0x2000)
	if a.PPN == b.PPN {
		t.Error("distinct virtual pages mapped to same frame")
	}
	for _, tr := range []Translation{a, b} {
		if tr.PageBits != arch.PageBits4K || tr.NumSteps != NumLevels {
			t.Errorf("translation is a %d-bit page in %d steps, want a 4KB page in %d", tr.PageBits, tr.NumSteps, NumLevels)
		}
	}
}

func TestSamePageSharesWalkSteps(t *testing.T) {
	pt := newPT(0)
	a := pt.Translate(0x5000)
	b := pt.Translate(0x5800) // same 4KB page? no — 0x5800 is same page as 0x5000? 0x5000>>12=5, 0x5800>>12=5. yes.
	if a.PPN != b.PPN {
		t.Error("same page should share frame")
	}
	for i := 0; i < a.NumSteps; i++ {
		if a.Steps[i].PTEAddr != b.Steps[i].PTEAddr {
			t.Errorf("step %d PTE addresses differ within one page", i)
		}
	}
}

func TestNeighbourPTEsShareCacheBlock(t *testing.T) {
	pt := newPT(0)
	a := pt.Translate(0x0000) // vpn 0
	b := pt.Translate(0x1000) // vpn 1 — adjacent leaf PTEs
	la := a.Steps[a.NumSteps-1].PTEAddr
	lb := b.Steps[b.NumSteps-1].PTEAddr
	if arch.BlockAddr(la) != arch.BlockAddr(lb) {
		t.Errorf("adjacent leaf PTEs in different blocks: %#x vs %#x", la, lb)
	}
	if la == lb {
		t.Error("distinct pages share a PTE address")
	}
}

func TestHugePages(t *testing.T) {
	pt := newPT(1.0)
	tr := pt.Translate(0x40000000)
	if tr.PageBits != arch.PageBits2M {
		t.Fatalf("PageBits = %d, want 2M", tr.PageBits)
	}
	if tr.NumSteps != 4 {
		t.Errorf("2MB walk has %d steps, want 4", tr.NumSteps)
	}
	// Whole 2MB region shares the translation: one 2MB page, reached
	// through the same PTEs.
	tr2 := pt.Translate(0x40000000 + 1<<20)
	if tr2 != tr {
		t.Errorf("2MB region not shared: %+v against %+v", tr2, tr)
	}
	// The next region is another 2MB page.
	tr3 := pt.Translate(0x40000000 + arch.PageSize2M)
	if tr3.PageBits != arch.PageBits2M || tr3.PPN == tr.PPN {
		t.Errorf("next 2MB region: %d-bit page %#x, first region's %#x", tr3.PageBits, tr3.PPN, tr.PPN)
	}
}

func TestHugeFractionDeterministic(t *testing.T) {
	a := NewPageTable(NewPhysAlloc(8<<30), 0.5, 7)
	b := NewPageTable(NewPhysAlloc(8<<30), 0.5, 7)
	for i := 0; i < 200; i++ {
		va := arch.Addr(i) << arch.PageBits2M
		if a.isHuge(va) != b.isHuge(va) {
			t.Fatal("huge-page layout not deterministic")
		}
	}
}

func TestHugeFractionRoughlyHonoured(t *testing.T) {
	pt := NewPageTable(NewPhysAlloc(32<<30), 0.5, 3)
	huge := 0
	const regions = 2000
	for i := 0; i < regions; i++ {
		if pt.isHuge(arch.Addr(i) << arch.PageBits2M) {
			huge++
		}
	}
	frac := float64(huge) / regions
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("huge fraction = %.3f, want ~0.5", frac)
	}
}

func TestPhysAddrReconstruction(t *testing.T) {
	pt := newPT(0)
	va := arch.Addr(0x7f00_1234_5678)
	tr := pt.Translate(va)
	pa := tr.PhysAddr(va)
	if pa&(arch.PageSize4K-1) != va&(arch.PageSize4K-1) {
		t.Error("page offset not preserved")
	}
	if pa>>arch.PageBits4K != tr.PPN {
		t.Error("frame number wrong in physical address")
	}
}

// Property: translations are functional (same VA → same PA) and injective
// per page across a random set of VAs.
func TestTranslationFunctionalProperty(t *testing.T) {
	pt := newPT(0.3)
	seen := map[uint64]arch.Addr{} // key: ppn<<8|bits → representative page
	f := func(raw uint32) bool {
		va := arch.Addr(raw) << 8 // spread over a 1TB range
		tr := pt.Translate(va)
		tr2 := pt.Translate(va)
		if tr != tr2 {
			return false
		}
		key := tr.PPN<<8 | uint64(tr.PageBits)
		pageBase := va >> tr.PageBits
		if prev, ok := seen[key]; ok && prev != pageBase {
			return false // two different virtual pages share a frame
		}
		seen[key] = pageBase
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPageTableNodesConsumePhysicalMemory: every node a walk steps
// through is a 4KB frame of its own, taken from the same allocator as the
// data pages and before the page it maps.
func TestPageTableNodesConsumePhysicalMemory(t *testing.T) {
	pt := newPT(0)
	tr := pt.Translate(0x1000)
	page := tr.PPN << tr.PageBits
	seen := map[arch.Addr]bool{}
	for _, st := range tr.Steps[:tr.NumSteps] {
		frame := st.PTEAddr &^ (arch.PageSize4K - 1)
		if frame == page || seen[frame] {
			t.Errorf("level-%d node frame %#x is the data page or another level's node", st.Level, frame)
		}
		if frame > page {
			t.Errorf("level-%d node frame %#x allocated after the page it maps (%#x)", st.Level, frame, page)
		}
		seen[frame] = true
	}
}

// TestPageTableBytesPerFrame: a table mapping 20,400 pages, a fifth of
// the entries of each of 200 neighbouring leaf nodes (the density of a
// four-tenant server run's heap class), holds its frames in under
// bytesPerFrameBound bytes of live heap per frame, after a collection.
// One map per frame class took 15.3 bytes per frame here; the node
// directory takes 7.1.
func TestPageTableBytesPerFrame(t *testing.T) {
	const (
		regions, perRegion = 200, 102
		bytesPerFrameBound = 11
	)
	rng := rand.New(rand.NewSource(1))
	vas := make([]arch.Addr, 0, regions*perRegion)
	for r := 0; r < regions; r++ {
		base := arch.Addr(1<<12+r) << arch.PageBits2M
		for _, p := range rng.Perm(ptesPerNode)[:perRegion] {
			vas = append(vas, base+arch.Addr(p)<<arch.PageBits4K)
		}
	}
	rng.Shuffle(len(vas), func(i, j int) { vas[i], vas[j] = vas[j], vas[i] })
	// Two collections empty the class pool, so the table allocates its
	// classes anew.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pt := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), 0, 1)
	for _, va := range vas {
		pt.Translate(va)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	frames := int((pt.alloc.next-pt.root)/arch.PageSize4K) - 1
	perFrame := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(frames)
	runtime.KeepAlive(pt)
	runtime.KeepAlive(vas)
	t.Logf("%d frames in %.1f bytes of live heap each", frames, perFrame)
	if perFrame > bytesPerFrameBound {
		t.Errorf("%d frames take %.1f bytes of live heap each, bound %d", frames, perFrame, bytesPerFrameBound)
	}
}
