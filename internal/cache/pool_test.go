package cache

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"unsafe"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/core"
	"itpsim/internal/replacement"
)

// newPolicyCache builds a cache of cfg under the named policy.
func newPolicyCache(cfg config.CacheConfig, policy string) *Cache {
	pol, err := replacement.FromName(policy, cfg.Sets, cfg.Ways, 1)
	if err != nil {
		panic(err)
	}
	return New("l2c", cfg, pol, &fixedLevel{latency: 100}, nil)
}

// poolTraffic touches blocks 0..n-1 (n at most half the cache's capacity,
// so each set keeps empty ways) twice: loads, stores and PTE accesses
// from varying PCs, so lines carry Dirty, IsPTE, PC and whatever state
// the policy keeps in them (SHiP's Sig, RRPV and Reused, Mockingjay's Sig).
func poolTraffic(c *Cache, n int) {
	for i := 0; i < 2*n; i++ {
		b := uint64(i % n)
		acc := &arch.Access{Addr: b << arch.BlockBits, PC: uint64(i%7) * 0x40, Kind: arch.Load}
		switch i % 5 {
		case 1:
			acc.Kind = arch.Store
		case 3:
			acc.IsPTE, acc.Class = true, arch.DataClass
		}
		c.Access(uint64(i)*200, acc)
	}
}

// drainPool empties the pool for n ways, so the next New of that size
// allocates new arrays.
func drainPool(n int) {
	for _, ok := stores.Get(n); ok; _, ok = stores.Get(n) {
	}
}

// TestRecycledStorageStartsFresh: New after Release takes the released
// arrays, and a cache built on them, after a Mockingjay run filled every
// line and column, hashes and audits exactly like one built on new
// arrays, before and after the same traffic: under LRU, which keeps no
// columns, and under Mockingjay, which takes the released signature and
// ETA columns. Without the line clear in New, the stale lines show in
// both the state fold and the empty-way audit rule; without the column
// clear, the stale columns do under Mockingjay.
func TestRecycledStorageStartsFresh(t *testing.T) {
	// No collection and one processor: a released array stays in this
	// processor's pool slot until the next New takes it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := config.CacheConfig{Sets: 64, Ways: 12, Latency: 5, MSHRs: 8}
	half := cfg.Sets * cfg.Ways / 2
	for _, policy := range []string{"lru", "mockingjay"} {
		drainPool(cfg.Sets * cfg.Ways)
		fresh := newPolicyCache(cfg, policy)
		wantNew := cacheHash(fresh)
		poolTraffic(fresh, half)
		wantRun := cacheHash(fresh)

		reused := false
		// The race detector's sync.Pool drops a quarter of its Puts, so
		// retry until one release comes back.
		for try := 0; try < 20 && !reused; try++ {
			dirty := newPolicyCache(cfg, "mockingjay")
			poolTraffic(dirty, 2*cfg.Sets*cfg.Ways)
			sto := *dirty.store
			dirty.Release()
			dirty.Release() // idempotent

			c := newPolicyCache(cfg, policy)
			reused = &c.tags[0] == &sto.tags[0] && &c.stack[0] == &sto.stack[0] && &c.lines[0] == &sto.lines[0]
			if c.sigs != nil {
				reused = reused && &c.sigs[0] == &sto.sigs[0] && &c.etas[0] == &sto.etas[0]
			}
			if h := cacheHash(c); h != wantNew {
				t.Fatalf("%s: new cache on recycled storage hashes %#x, on new storage %#x", policy, h, wantNew)
			}
			if v := auditCache(t, c, 0); v != nil {
				t.Fatalf("%s: new cache on recycled storage: %v", policy, v)
			}
			poolTraffic(c, half)
			if h := cacheHash(c); h != wantRun {
				t.Fatalf("%s: after traffic, recycled storage hashes %#x, new storage %#x", policy, h, wantRun)
			}
			if v := auditCache(t, c, 1<<20); v != nil {
				t.Fatalf("%s: after traffic on recycled storage: %v", policy, v)
			}
			c.Release()
		}
		if !reused {
			t.Fatalf("%s: New never reused a released cache's arrays", policy)
		}
	}
}

// wayBytes returns the bytes of storage c holds per way: tags, stack,
// lines and whatever columns its storage carries.
func wayBytes(c *Cache) uintptr {
	s := c.store
	total := uintptr(len(s.tags))*unsafe.Sizeof(s.tags[0]) +
		uintptr(len(s.stack))*unsafe.Sizeof(s.stack[0]) +
		uintptr(len(s.lines))*unsafe.Sizeof(replacement.Line{}) +
		uintptr(len(s.sigs))*unsafe.Sizeof(uint16(0)) +
		uintptr(len(s.etas))*unsafe.Sizeof(uint64(0))
	return total / uintptr(len(s.tags))
}

// TestWayStorageBytes reads the storage each cache of a default machine
// takes per way under every cache policy, on new storage: 13 bytes (a
// 4-byte tag, a stack byte and an 8-byte Line) under a policy that keeps
// no columns, as every cache of an LRU, iTP or xPTP machine does; 2
// more under a policy that keeps signatures; and 8 more again under
// Mockingjay, which keeps ETAs too.
func TestWayStorageBytes(t *testing.T) {
	want := map[string]uintptr{"ship": 15, "tship": 15, "hawkeye": 15, "mockingjay": 23}
	mcfg := config.Default()
	for _, cfg := range []config.CacheConfig{mcfg.L1I, mcfg.L1D, mcfg.L2C, mcfg.LLC} {
		for _, name := range []string{"lru", "xptp", "xptp-adaptive", "xptp-emissary", "random", "srrip",
			"brrip", "drrip", "ptp", "tdrrip", "emissary", "ship", "tship", "hawkeye", "mockingjay"} {
			var pol replacement.Policy
			switch name {
			case "xptp":
				pol = core.NewXPTP(mcfg.XPTP)
			case "xptp-adaptive":
				pol = core.NewAdaptiveXPTP(mcfg.XPTP, func() bool { return true })
			case "xptp-emissary":
				pol = replacement.NewXPTPEmissary(mcfg.XPTP.K)
			default:
				var err error
				if pol, err = replacement.FromName(name, cfg.Sets, cfg.Ways, 1); err != nil {
					t.Fatal(err)
				}
			}
			drainPool(cfg.Sets * cfg.Ways)
			c := New("c", cfg, pol, &fixedLevel{latency: 100}, nil)
			w, ok := want[name]
			if !ok {
				w = 13
			}
			if got := wayBytes(c); got != w {
				t.Errorf("%d×%d cache under %s: %d bytes per way, want %d", cfg.Sets, cfg.Ways, name, got, w)
			}
			c.Release()
		}
	}
}

// TestReleasedCachePanics: a released cache has no arrays left, so using
// it fails loudly instead of reading storage another cache now owns.
func TestReleasedCachePanics(t *testing.T) {
	c := New("l1d", smallCfg(), replacement.NewLRU(), &fixedLevel{latency: 10}, nil)
	c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("access to a released cache did not panic")
		}
	}()
	c.Access(0, load(0x1000))
}

// TestStoragePoolConcurrent: goroutines build, fill, hash and release
// caches of two geometries with the same sets×ways, so storage crosses
// both goroutines and geometries. After the fixed traffic every cache
// must hash like a cache of its geometry built on new arrays. make
// race-matrix runs it under the race detector.
func TestStoragePoolConcurrent(t *testing.T) {
	geoms := []config.CacheConfig{
		{Sets: 32, Ways: 16, Latency: 5, MSHRs: 8},
		{Sets: 64, Ways: 8, Latency: 5, MSHRs: 8},
	}
	half := geoms[0].Sets * geoms[0].Ways / 2
	drainPool(2 * half)
	want := make([]uint64, len(geoms))
	for g, cfg := range geoms {
		c := newPolicyCache(cfg, "ship")
		poolTraffic(c, half)
		want[g] = cacheHash(c)
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
				c := newPolicyCache(geoms[g], "ship")
				poolTraffic(c, half)
				if h := cacheHash(c); h != want[g] {
					errs <- "worker state differs from a cache on new storage"
					return
				}
				c.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
