package tlb

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"itpsim/internal/arch"
)

// drainStores empties the pool for n entries, so the next New of that
// size allocates a new array.
func drainStores(n int) {
	for _, ok := stores.Get(n); ok; _, ok = stores.Get(n) {
	}
}

// tlbTraffic inserts and looks up pages 0..n-1 twice, from both classes
// and two threads, so entries carry Class, Thread and whatever the
// policy keeps (CHiRP's Sig and Reused).
func tlbTraffic(tl *TLB, n int) {
	for i := 0; i < 2*n; i++ {
		page := uint64(i % n)
		va := arch.Addr(page) << arch.PageBits4K
		cls := arch.Class(i % 2)
		thread := uint8(i / n)
		if _, _, hit := tl.Lookup(va, uint64(i)*4, cls, thread); !hit {
			tl.Insert(va, 0x1000+page, arch.PageBits4K, cls, uint64(i)*4, thread)
		}
	}
}

// TestRecycledTLBStartsFresh: New after Release takes the released
// entries, and a TLB built on entries a CHiRP run filled hashes and
// audits exactly like one built on a new array, before and after the
// same traffic. Without the entry clear in New, the stale entries show
// in the state fold.
func TestRecycledTLBStartsFresh(t *testing.T) {
	// No collection and one processor: a released array stays in this
	// processor's pool slot until the next New takes it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const sets, ways = 16, 12
	drainStores(sets * ways)
	fresh := New("stlb", sets, ways, NewLRU())
	wantNew := tlbHash(fresh)
	tlbTraffic(fresh, sets*ways/2)
	wantRun := tlbHash(fresh)

	reused := false
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until one release comes back.
	for try := 0; try < 20 && !reused; try++ {
		dirty := New("stlb", sets, ways, NewCHiRP(ways))
		tlbTraffic(dirty, 4*sets*ways)
		first := &dirty.store.entries[0]
		dirty.Release()
		dirty.Release() // idempotent

		tl := New("stlb", sets, ways, NewLRU())
		reused = &tl.store.entries[0] == first
		if h := tlbHash(tl); h != wantNew {
			t.Fatalf("new TLB on recycled entries hashes %#x, on new entries %#x", h, wantNew)
		}
		if v := auditOne(t, tl); v != nil {
			t.Fatalf("new TLB on recycled entries: %v", v)
		}
		tlbTraffic(tl, sets*ways/2)
		if h := tlbHash(tl); h != wantRun {
			t.Fatalf("after traffic, recycled entries hash %#x, new entries %#x", h, wantRun)
		}
		if v := auditOne(t, tl); v != nil {
			t.Fatalf("after traffic on recycled entries: %v", v)
		}
		tl.Release()
	}
	if !reused {
		t.Fatal("New never reused a released TLB's entries")
	}
}

// TestReleasedTLBPanics: a released TLB has no entries left, so using it
// fails loudly instead of reading entries another TLB now owns.
func TestReleasedTLBPanics(t *testing.T) {
	tl := New("dtlb", 16, 4, NewLRU())
	tl.Release()
	defer func() {
		if recover() == nil {
			t.Error("lookup on a released TLB did not panic")
		}
	}()
	tl.Lookup(0x1000, 0, arch.InstrClass, 0)
}

// TestTLBStoragePoolConcurrent: goroutines build, fill, hash and release
// TLBs of three geometries, two of them with the same entry count, so
// entries cross goroutines and geometries. After the fixed traffic every
// TLB must hash like a TLB of its geometry built on a new array. make
// race-matrix runs it under the race detector.
func TestTLBStoragePoolConcurrent(t *testing.T) {
	geoms := [][2]int{{16, 4}, {8, 8}, {32, 12}}
	want := make([]uint64, len(geoms))
	for g, geo := range geoms {
		drainStores(geo[0] * geo[1])
		tl := New("t", geo[0], geo[1], NewCHiRP(geo[1]))
		tlbTraffic(tl, geo[0]*geo[1])
		want[g] = tlbHash(tl)
	}

	const workers, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g := (w + i) % len(geoms)
				tl := New("t", geoms[g][0], geoms[g][1], NewCHiRP(geoms[g][1]))
				tlbTraffic(tl, geoms[g][0]*geoms[g][1])
				if tlbHash(tl) != want[g] {
					errs <- "worker state differs from a TLB on a new array"
					return
				}
				tl.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
