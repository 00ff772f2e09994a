// Package pool recycles the large storage a simulated machine builds —
// cache arrays, TLB entries, the L2C stride table and the lookahead
// rings — from machines that are done to the machines built after them.
//
// A Keyed pool holds one sync.Pool per int key (a size), so a
// constructor only ever takes storage put back under its own key. The
// pools are shared by every machine in the process. A sync.Pool is
// emptied by the garbage collector (an item survives at most two
// collections), so nothing recycled outlives a run, and a live-heap
// reading taken after two collections sees none of it.
package pool

import "sync"

// Keyed is a set of sync.Pools of T, one per key. T should be a pointer
// type, so Put stores it without allocating. The zero value is empty
// and ready to use; Keyed is safe for concurrent use.
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
	v, ok = k.pool(key).Get().(T)
	return v, ok
}

// Put hands v back under key. The caller must not use v afterwards.
func (k *Keyed[T]) Put(key int, v T) {
	k.pool(key).Put(v)
}
