package vm

import (
	"maps"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"itpsim/internal/arch"
)

// drainFrameMaps empties the class pool of every class vas reach, so the
// next table translating them makes new classes.
func drainFrameMaps(vas []arch.Addr) {
	for _, va := range vas {
		for level := 0; level < NumLevels; level++ {
			for {
				if _, ok := frameMaps.Get(int(frameKey(va&(1<<vaBits-1), level) >> 32)); !ok {
					break
				}
			}
		}
	}
}

// mapIDs identifies pt's classes by class.
func mapIDs(pt *PageTable) map[uint32]*frameClass {
	ids := make(map[uint32]*frameClass, len(pt.classes))
	for _, c := range pt.classes {
		ids[c.hi] = c
	}
	return ids
}

// clusteredVAs returns n virtual addresses in runs of 16 neighbouring
// pages, the runs scattered over 2^40 bytes, so leaf nodes hold several
// pages and interior nodes several children.
func clusteredVAs(seed uint64, n int) []arch.Addr {
	vas := make([]arch.Addr, n)
	var base arch.Addr
	for i := range vas {
		if i%16 == 0 {
			seed ^= seed << 13
			seed ^= seed >> 7
			seed ^= seed << 17
			base = arch.Addr(seed&(1<<40-1)) &^ (arch.PageSize4K - 1)
		}
		vas[i] = base + arch.Addr(i%16)*arch.PageSize4K + 0x18
	}
	return vas
}

// denseVAs returns one address in each 2^shift-byte step of n regions
// of 512 such steps, the regions scattered over 2^40 bytes, in shuffled
// order. At shift 12 it touches every page of n 2MB regions, at shift
// 21 every 2MB region of n 1GB regions, so each leaf or level-1 node
// fills to all 512 entries, its inserts landing before, between and
// after present entries and across chunk boundaries.
func denseVAs(seed int64, n int, shift uint) []arch.Addr {
	rng := rand.New(rand.NewSource(seed))
	vas := make([]arch.Addr, 0, n*ptesPerNode)
	for i := 0; i < n; i++ {
		base := arch.Addr(rng.Int63n(1<<40)) &^ (1<<(shift+9) - 1)
		for j := 0; j < ptesPerNode; j++ {
			vas = append(vas, base+arch.Addr(j)<<shift+0x28)
		}
	}
	rng.Shuffle(len(vas), func(i, j int) { vas[i], vas[j] = vas[j], vas[i] })
	return vas
}

// translateAll resolves vas in order.
func translateAll(pt *PageTable, vas []arch.Addr) []Translation {
	out := make([]Translation, len(vas))
	for i, va := range vas {
		out[i] = pt.Translate(va)
	}
	return out
}

// TestRecycledTableTranslatesLikeFresh: a table built on the classes of
// a released table, which mapped other addresses under another
// huge-page layout, resolves a new address sequence exactly like a table
// on new classes: the same PPN, page size and PTE address at every step.
// Half the 2MB regions are huge, so the released classes hold 2MB pages
// and level-1 nodes under the same class's keys. Without the directory
// clear in Release the recycled classes still find the old frames, and
// the translations differ.
func TestRecycledTableTranslatesLikeFresh(t *testing.T) {
	// No collection and one processor: a released class stays in this
	// processor's pool until the next table takes it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dirtyVAs := clusteredVAs(0x9e3779b97f4a7c15, 2048)
	vas := append(clusteredVAs(0xdeadbeefcafe, 1024), dirtyVAs[:512]...)
	drainFrameMaps(vas)
	want := translateAll(NewPageTable(NewPhysAlloc(arch.PhysMemBytes), 0.5, 3), vas)

	reused := false
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until every class comes back.
	for try := 0; try < 20 && !reused; try++ {
		dirty := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), 0.5, 11)
		translateAll(dirty, dirtyVAs)
		old := mapIDs(dirty)
		dirty.Release()
		dirty.Release() // idempotent

		pt := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), 0.5, 3)
		for i, tr := range translateAll(pt, vas) {
			if tr != want[i] {
				t.Fatalf("va %#x on recycled classes: %+v, on new classes: %+v", vas[i], tr, want[i])
			}
		}
		reused = maps.Equal(mapIDs(pt), old)
		pt.Release()
	}
	if !reused {
		t.Fatal("a new table never reused a released table's classes")
	}
}

// TestRecycledMapDoesNotGrow: a table on recycled classes that maps no
// more nodes and chunks of frames per class than a released table
// allocates nothing while it translates, even when a smaller table of
// other classes released its classes first. That table's level-0 and
// level-1 frames lie in classes the big table never reaches, and it
// maps more level-2 nodes than the big table, so every class the pool
// holds under a key is large enough for it.
func TestRecycledMapDoesNotGrow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	vas := clusteredVAs(0x2545f4914f6cdd1d, 8192)
	// One page in each of 1024 1GB regions at 2^54, above the big
	// table's 2^40 bytes.
	far := make([]arch.Addr, 1024)
	for i := range far {
		far[i] = 1<<54 | arch.Addr(i)<<30
	}
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until the classes come back.
	for try := 0; try < 20; try++ {
		big := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), 0, 11)
		translateAll(big, vas)
		small := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), 0, 13)
		translateAll(small, far)
		released := map[*frameClass]bool{}
		for _, tbl := range []*PageTable{big, small} {
			for _, id := range mapIDs(tbl) {
				released[id] = true
			}
		}
		small.Release()
		big.Release()

		pt := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), 0, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, va := range vas {
			pt.Translate(va)
		}
		runtime.ReadMemStats(&after)
		reused := true
		for _, id := range mapIDs(pt) {
			reused = reused && released[id]
		}
		pt.Release()
		if reused {
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%d VAs on recycled classes made %d allocations (%d bytes)",
					len(vas), n, after.TotalAlloc-before.TotalAlloc)
			}
			return
		}
	}
	t.Fatal("a new table never reused released tables' classes")
}

// TestReleasedTablePanics: a released table has no classes or allocator
// left, so using it fails loudly instead of reading frames another table
// now owns.
func TestReleasedTablePanics(t *testing.T) {
	pt := newPT(0)
	pt.Translate(0x1000)
	pt.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("translation on a released table did not panic")
		}
	}()
	pt.Translate(0x1000)
}

// TestNodePoolConcurrent: goroutines build, fill and release tables of
// two sizes, so classes cross goroutines and tables of other shapes.
// Every table must translate like one on new classes. make race-matrix
// runs it under the race detector.
func TestNodePoolConcurrent(t *testing.T) {
	shapes := []struct {
		vas  []arch.Addr
		huge float64
	}{
		{clusteredVAs(1, 256), 0},
		{clusteredVAs(2, 1024), 0.3},
	}
	want := make([][]Translation, len(shapes))
	for i, sh := range shapes {
		want[i] = translateAll(NewPageTable(NewPhysAlloc(arch.PhysMemBytes), sh.huge, 7), sh.vas)
	}

	const workers, rounds = 4, 10
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := (w + i) % len(shapes)
				pt := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), shapes[s].huge, 7)
				for j, tr := range translateAll(pt, shapes[s].vas) {
					if tr != want[s][j] {
						errs <- "a table on recycled classes translates unlike one on new classes"
						return
					}
				}
				pt.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
