// Package pool recycles the large storage a simulated machine builds —
// cache arrays, TLB entries, the L2C stride table, page tables' frame
// classes and each thread's lookahead, ROB and FTQ rings — and the buffers
// runs ingest instructions through — decode batches and functional
// warmup buffers — from machines and runs that are done to those that
// start after them. Every pool outside tests is a Keyed pool.
//
// A Keyed pool holds one sync.Pool per int key (a size, or a page
// table's frame class), so a constructor only ever takes storage put
// back under its own key. The pools are shared by every machine in the
// process. A sync.Pool is emptied by the garbage collector (an item
// survives at most two collections), so nothing recycled outlives a
// run, and a live-heap reading taken after two collections sees none of
// it.
package pool

import "sync"

// Keyed is a set of sync.Pools of T, one per key. T should be a pointer
// or a map, so Put stores it without allocating. Any processor can take
// a value another processor put (see placeholder). The zero value is
// empty and ready to use; Keyed is safe for concurrent use.
type Keyed[T any] struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

// pool returns the sync.Pool for key, creating it on first use.
func (k *Keyed[T]) pool(key int) *sync.Pool {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.pools[key]
	if p == nil {
		if k.pools == nil {
			k.pools = map[int]*sync.Pool{}
		}
		p = new(sync.Pool)
		k.pools[key] = p
	}
	return p
}

// Get takes a value put under key. ok is false when none is left, and
// the caller allocates a new one instead. A value comes back as it was
// put: the caller initialises what it takes.
func (k *Keyed[T]) Get(key int) (v T, ok bool) {
	p := k.pool(key)
	x := p.Get()
	for x == placeholder {
		x = p.Get()
	}
	v, ok = x.(T)
	return v, ok
}

// Put hands v back under key. The caller must not use v afterwards.
func (k *Keyed[T]) Put(key int, v T) {
	p := k.pool(key)
	p.Put(placeholder)
	p.Put(v)
}

// placeholder keeps the values a Keyed holds where every processor can
// take them. A sync.Pool puts a value in the putting processor's
// private slot when that slot is free, and serves that slot to no other
// processor; a collection moves it to a victim slot only the same
// processor reads, and the next collection drops it. So storage a
// machine released on one processor missed the next machine built on
// the other, and a collection between the two lost it: one cold
// sampled sweep in three allocated a whole machine's storage more.
// Put parks the placeholder first, which takes the private slot when
// it is free, so values go to the shared queues other processors
// steal from; Get skips placeholders.
var placeholder any = new(byte)
