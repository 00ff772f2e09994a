package vm

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"itpsim/internal/arch"
)

// drainNodes empties every level's node pool, so the next table builds
// new nodes.
func drainNodes() {
	for level := 1; level <= NumLevels; level++ {
		for _, ok := nodes.Get(level); ok; _, ok = nodes.Get(level) {
		}
	}
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

// levelNodes lists the nodes of pt's tree by level.
func levelNodes(pt *PageTable) map[int]map[*node]bool {
	out := map[int]map[*node]bool{}
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		if out[level] == nil {
			out[level] = map[*node]bool{}
		}
		out[level][n] = true
		for _, c := range n.children {
			walk(c, level-1)
		}
	}
	walk(pt.root, NumLevels)
	return out
}

// TestRecycledTableTranslatesLikeFresh: a table built on the nodes of a
// released table, which mapped other addresses under another huge-page
// layout, resolves a new address sequence exactly like a table built on
// new nodes: the same PPN, page size and PTE address at every step. Half
// the 2MB regions are huge, so level-2 nodes hold both 2MB leaves and
// level-1 children when they are released. Without the map clear in
// Release the recycled nodes still hold the old mappings, and the
// translations differ.
func TestRecycledTableTranslatesLikeFresh(t *testing.T) {
	// No collection and one processor: released nodes stay in this
	// processor's pool slots until the next table takes them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dirtyVAs := clusteredVAs(0x9e3779b97f4a7c15, 2048)
	vas := append(clusteredVAs(0xdeadbeefcafe, 1024), dirtyVAs[:512]...)
	drainNodes()
	want := translateAll(NewPageTable(NewPhysAlloc(64<<30), 0.5, 3), vas)

	reused := false
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until nodes of every level come back.
	for try := 0; try < 20 && !reused; try++ {
		dirty := NewPageTable(NewPhysAlloc(64<<30), 0.5, 11)
		translateAll(dirty, dirtyVAs)
		old := levelNodes(dirty)
		dirty.Release()
		dirty.Release() // idempotent

		pt := NewPageTable(NewPhysAlloc(64<<30), 0.5, 3)
		for i, tr := range translateAll(pt, vas) {
			if tr != want[i] {
				t.Fatalf("va %#x on recycled nodes: %+v, on new nodes: %+v", vas[i], tr, want[i])
			}
		}
		reused = true
		for level, ns := range levelNodes(pt) {
			hit := false
			for n := range ns {
				hit = hit || old[level][n]
			}
			reused = reused && hit
		}
		pt.Release()
	}
	if !reused {
		t.Fatal("a new table never reused a released table's nodes at every level")
	}
}

// TestReleasedTablePanics: a released table has no tree left, so using
// it fails loudly instead of walking nodes another table now owns.
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
// two sizes, so nodes cross goroutines and tables of other shapes. Every
// table must translate like one built on new nodes. make race-matrix
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
						errs <- "a table on recycled nodes translates unlike one on new nodes"
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
