package pool

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
)

// TestKeyedReturnsOnlyItsKey: a value comes back only under the key it
// was put under, and an empty key reports ok == false.
func TestKeyedReturnsOnlyItsKey(t *testing.T) {
	// No collection and one processor: a put value stays in this
	// processor's pool slot until a Get takes it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var k Keyed[*[]int]
	if v, ok := k.Get(8); ok || v != nil {
		t.Fatalf("empty pool returned %v, %v", v, ok)
	}
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until one comes back.
	back := false
	for try := 0; try < 20 && !back; try++ {
		v := &[]int{1, 2, 3}
		k.Put(3, v)
		if got, ok := k.Get(8); ok {
			t.Fatalf("key 8 returned %v, put under key 3", *got)
		}
		got, ok := k.Get(3)
		back = ok && got == v
	}
	if !back {
		t.Fatal("Get never returned the value put under its key")
	}
}

// TestKeyedConcurrent: goroutines put and take values under two keys;
// every value taken must be one put under the same key. make race-matrix
// runs it under the race detector.
func TestKeyedConcurrent(t *testing.T) {
	var k Keyed[*[2]int]
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := (w + i) % 2
				v, ok := k.Get(key)
				if !ok {
					v = &[2]int{key, w}
				} else if v[0] != key {
					errs <- "a value came back under another key"
					return
				}
				k.Put(key, v)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestKeyedServesEveryProcessor: a value put on one processor is taken
// by a Get on the other, also after a collection has moved it to the
// victim cache. The put runs on a goroutine while the test goroutine
// spins on its processor, so the put lands on the other one; a plain
// sync.Pool keeps the value in that processor's private slot and the
// Get misses.
func TestKeyedServesEveryProcessor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var k Keyed[*int]
	for i := 0; i < 20; i++ {
		v := new(int)
		var put atomic.Bool
		go func() {
			k.Put(1, v)
			put.Store(true)
		}()
		for !put.Load() {
		}
		if i%2 == 1 {
			runtime.GC()
		}
		if got, ok := k.Get(1); !ok || got != v {
			t.Fatalf("round %d: Get returned %p, %v; put %p", i, got, ok, v)
		}
	}
}
