package vm

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"itpsim/internal/arch"
)

// drainFrameMaps empties the frame-map pool, so the next table makes a
// new map.
func drainFrameMaps() {
	for frameMaps.Get() != nil {
	}
}

// mapID identifies pt's frame map, 0 while it has none.
func mapID(pt *PageTable) uintptr {
	if pt.frames == nil {
		return 0
	}
	return reflect.ValueOf(pt.frames).Pointer()
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

// translateAll resolves vas in order.
func translateAll(pt *PageTable, vas []arch.Addr) []Translation {
	out := make([]Translation, len(vas))
	for i, va := range vas {
		out[i] = pt.Translate(va)
	}
	return out
}

// TestRecycledTableTranslatesLikeFresh: a table built on the frame map of
// a released table, which mapped other addresses under another huge-page
// layout, resolves a new address sequence exactly like a table on a new
// map: the same PPN, page size and PTE address at every step. Half the
// 2MB regions are huge, so the released map holds 2MB pages and level-1
// nodes under the same level's keys. Without the clear in Release the
// recycled map still holds the old frames, and the translations differ.
func TestRecycledTableTranslatesLikeFresh(t *testing.T) {
	// No collection and one processor: a released map stays in this
	// processor's pool slot until the next table takes it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dirtyVAs := clusteredVAs(0x9e3779b97f4a7c15, 2048)
	vas := append(clusteredVAs(0xdeadbeefcafe, 1024), dirtyVAs[:512]...)
	drainFrameMaps()
	want := translateAll(NewPageTable(NewPhysAlloc(64<<30), 0.5, 3), vas)

	reused := false
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until the map comes back.
	for try := 0; try < 20 && !reused; try++ {
		dirty := NewPageTable(NewPhysAlloc(64<<30), 0.5, 11)
		translateAll(dirty, dirtyVAs)
		old := mapID(dirty)
		dirty.Release()
		dirty.Release() // idempotent

		pt := NewPageTable(NewPhysAlloc(64<<30), 0.5, 3)
		for i, tr := range translateAll(pt, vas) {
			if tr != want[i] {
				t.Fatalf("va %#x on a recycled map: %+v, on a new map: %+v", vas[i], tr, want[i])
			}
		}
		reused = mapID(pt) == old
		pt.Release()
	}
	if !reused {
		t.Fatal("a new table never reused a released table's frame map")
	}
}

// TestRecycledMapDoesNotGrow: a table on a recycled frame map that maps
// no more frames than the map held allocates nothing while it
// translates.
func TestRecycledMapDoesNotGrow(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	vas := clusteredVAs(0x2545f4914f6cdd1d, 8192)
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until the map comes back.
	for try := 0; try < 20; try++ {
		dirty := NewPageTable(NewPhysAlloc(64<<30), 0, 11)
		translateAll(dirty, vas)
		old := mapID(dirty)
		dirty.Release()

		pt := NewPageTable(NewPhysAlloc(64<<30), 0, 3)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, va := range vas {
			pt.Translate(va)
		}
		runtime.ReadMemStats(&after)
		reused := mapID(pt) == old
		pt.Release()
		if reused {
			if n := after.Mallocs - before.Mallocs; n != 0 {
				t.Fatalf("%d VAs on a recycled map made %d allocations (%d bytes)",
					len(vas), n, after.TotalAlloc-before.TotalAlloc)
			}
			return
		}
	}
	t.Fatal("a new table never reused a released table's frame map")
}

// TestReleasedTablePanics: a released table has no frame map or
// allocator left, so using it fails loudly instead of reading frames
// another table now owns.
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
// two sizes, so frame maps cross goroutines and tables of other shapes.
// Every table must translate like one on a new map. make race-matrix
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
		want[i] = translateAll(NewPageTable(NewPhysAlloc(64<<30), sh.huge, 7), sh.vas)
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
				pt := NewPageTable(NewPhysAlloc(64<<30), shapes[s].huge, 7)
				for j, tr := range translateAll(pt, shapes[s].vas) {
					if tr != want[s][j] {
						errs <- "a table on a recycled map translates unlike one on a new map"
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
