package cache

import (
	"math/rand"
	"slices"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/prefetch"
	"itpsim/internal/replacement"
	"itpsim/internal/stats"
)

// fixedLevel is a stub next level with constant latency.
type fixedLevel struct {
	latency  uint64
	accesses int
	last     arch.Access
}

func (f *fixedLevel) Access(now uint64, acc *arch.Access) uint64 {
	f.accesses++
	f.last = *acc
	return now + f.latency
}

func smallCfg() config.CacheConfig {
	return config.CacheConfig{Sets: 4, Ways: 2, Latency: 5, MSHRs: 4}
}

func load(addr arch.Addr) *arch.Access {
	return &arch.Access{Addr: addr, PC: 0x400000, Kind: arch.Load}
}

func TestMissThenHit(t *testing.T) {
	next := &fixedLevel{latency: 100}
	var lv stats.Level
	c := New("test", smallCfg(), replacement.NewLRU(), next, &lv)

	done := c.Access(0, load(0x1000))
	if done != 105 {
		t.Errorf("miss done = %d, want 105 (5 latency + 100 next)", done)
	}
	if next.accesses != 1 {
		t.Errorf("next accesses = %d, want 1", next.accesses)
	}
	done = c.Access(200, load(0x1000))
	if done != 205 {
		t.Errorf("hit done = %d, want 205", done)
	}
	if next.accesses != 1 {
		t.Error("hit should not touch next level")
	}
	if lv.TotalMisses() != 1 || lv.TotalHits() != 1 {
		t.Errorf("stats = %d misses / %d hits", lv.TotalMisses(), lv.TotalHits())
	}
}

func TestMissLatencyRecorded(t *testing.T) {
	next := &fixedLevel{latency: 95}
	var lv stats.Level
	c := New("test", smallCfg(), replacement.NewLRU(), next, &lv)
	c.Access(0, load(0x1000))
	if lv.MissLatCnt != 1 || lv.MissLatSum != 100 {
		t.Errorf("miss latency = %d/%d, want 100/1", lv.MissLatSum, lv.MissLatCnt)
	}
}

func TestEvictionLRU(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	// Three blocks mapping to set 0 in a 2-way cache (4 sets: block%4==0).
	a, b, d := arch.Addr(0<<6), arch.Addr(4<<6), arch.Addr(8<<6)
	c.Access(0, load(a))
	c.Access(0, load(b))
	c.Access(0, load(a)) // a is MRU
	c.Access(0, load(d)) // evicts b
	if !c.Contains(a, 0) || c.Contains(b, 0) || !c.Contains(d, 0) {
		t.Errorf("eviction wrong: a=%v b=%v d=%v", c.Contains(a, 0), c.Contains(b, 0), c.Contains(d, 0))
	}
}

func TestMSHRMerge(t *testing.T) {
	next := &fixedLevel{latency: 100}
	var lv stats.Level
	c := New("test", smallCfg(), replacement.NewLRU(), next, &lv)
	d1 := c.Access(0, load(0x1000))
	// A second access to the same block while the first is outstanding
	// merges: no extra next-level access, completes with the fill.
	d2 := c.Access(10, load(0x1008))
	if next.accesses != 1 {
		t.Errorf("merged miss hit next level (%d accesses)", next.accesses)
	}
	if d2 != d1 {
		t.Errorf("merged access done = %d, want fill time %d", d2, d1)
	}
	if lv.TotalMisses() != 2 {
		t.Errorf("both accesses should count as misses, got %d", lv.TotalMisses())
	}
}

func TestMSHROccupancyStalls(t *testing.T) {
	next := &fixedLevel{latency: 1000}
	cfg := smallCfg()
	cfg.MSHRs = 2
	c := New("test", cfg, replacement.NewLRU(), next, nil)
	c.Access(0, load(0x0<<6))
	c.Access(0, load(0x1<<6))
	// Third distinct miss at cycle 0 must wait for an MSHR (first frees
	// at 5+1000).
	done := c.Access(0, load(0x2<<6))
	if done <= 1005 {
		t.Errorf("third miss done = %d, should stall past 1005", done)
	}
}

// scanMSHRs is the reference for mshrLookup: the linear scan over every
// entry, without the per-bucket bound.
func scanMSHRs(c *Cache, now, block uint64, thread uint8) *mshrEntry {
	for i := range c.mshrs {
		e := &c.mshrs[i]
		if e.block == block && e.valid && e.thread == thread && e.readyAt > now {
			return e
		}
	}
	return nil
}

// TestMSHRLookupMatchesScan: wherever misses are in flight, mshrLookup
// returns the entry the linear scan returns, for blocks that share a
// bucket with an in-flight miss and blocks that do not. The scenario
// puts two misses in one bucket, the later one completing first, and
// reallocates an expired entry to a block of another bucket; random
// traffic on six blocks (three sharing a bucket) and two threads then
// draws each miss's latency and steps time back now and then, checking
// every block and thread around each access.
func TestMSHRLookupMatchesScan(t *testing.T) {
	next := &fixedLevel{}
	cfg := smallCfg()
	cfg.MSHRs = 2
	c := New("test", cfg, replacement.NewLRU(), next, nil)
	var same, other []uint64
	for b := uint64(1); len(same) < 3 || len(other) < 3; b++ {
		switch {
		case mshrBucket(b) == mshrBucket(1):
			if len(same) < 3 {
				same = append(same, b)
			}
		case len(other) < 3 && !slices.ContainsFunc(other, func(o uint64) bool { return mshrBucket(o) == mshrBucket(b) }):
			other = append(other, b)
		}
	}
	blocks := append(slices.Clone(same), other...)
	check := func(now uint64) {
		t.Helper()
		for _, b := range blocks {
			for th := uint8(0); th < 2; th++ {
				if got, want := c.mshrLookup(now, b, th), scanMSHRs(c, now, b, th); got != want {
					t.Fatalf("block %#x thread %d at %d: lookup %p, scan %p", b, th, now, got, want)
				}
			}
		}
	}
	access := func(now, block uint64, th uint8, latency uint64) {
		t.Helper()
		check(now)
		next.latency = latency
		c.Access(now, &arch.Access{Addr: arch.Addr(block) << arch.BlockBits, Kind: arch.Load, Thread: th})
		check(now)
	}

	// Two misses in one bucket: the first is in flight until 305, the
	// second until 56. At 100 only the first is, and the bucket's third
	// block never was.
	access(0, same[0], 0, 300)
	access(1, same[1], 0, 50)
	check(100)
	if c.mshrLookup(100, same[0], 0) == nil || c.mshrLookup(100, same[1], 0) != nil || c.mshrLookup(100, same[2], 0) != nil {
		t.Fatal("in-flight misses sharing a bucket not told apart")
	}
	// At 400 both have expired; a miss in another bucket reallocates the
	// first entry, whose old block is no longer in flight.
	access(400, other[0], 0, 100)
	if e := c.mshrLookup(450, other[0], 0); e != &c.mshrs[0] {
		t.Fatalf("reallocated entry %p not found for its new block (want %p)", e, &c.mshrs[0])
	}
	check(450)

	rng := rand.New(rand.NewSource(1))
	now := uint64(600)
	for i := 0; i < 5000; i++ {
		now += uint64(rng.Intn(40))
		if rng.Intn(8) == 0 {
			now -= uint64(rng.Intn(150))
		}
		access(now, blocks[rng.Intn(len(blocks))], uint8(rng.Intn(2)), 20+uint64(rng.Intn(300)))
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	wb := 0
	c.SetWriteback(func(now uint64, addr arch.Addr) { wb++ })
	st := &arch.Access{Addr: 0 << 6, Kind: arch.Store, PC: 1}
	c.Access(0, st)
	c.Access(0, load(4<<6))
	c.Access(0, load(8<<6)) // evicts the dirty store block
	if c.Writebacks != 1 || wb != 1 {
		t.Errorf("writebacks = %d (fn %d), want 1", c.Writebacks, wb)
	}
}

func TestStoreMarksDirtyOnHit(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	c.Access(0, load(0x1000))
	c.Access(0, &arch.Access{Addr: 0x1000, Kind: arch.Store})
	c.Access(0, load(4<<6|0x1000&0xfff)) // may or may not evict; force eviction:
	// Fill two more blocks into the same set to evict the dirty one.
	set := int(arch.BlockNumber(0x1000)) & 3
	_ = set
	c.Access(0, load(0x1000+4*64))
	c.Access(0, load(0x1000+8*64))
	if c.Writebacks == 0 {
		t.Error("dirty-on-hit block eviction should write back")
	}
}

func TestPTEMetadataPropagation(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	acc := &arch.Access{Addr: 0x2000, Kind: arch.PTW, Class: arch.DataClass, IsPTE: true}
	c.Access(0, acc)
	_, pte, dataPTE := c.Occupancy()
	if pte != 1 || dataPTE != 1 {
		t.Errorf("occupancy pte=%d dataPTE=%d, want 1/1", pte, dataPTE)
	}
	acc2 := &arch.Access{Addr: 0x3000, Kind: arch.PTW, Class: arch.InstrClass, IsPTE: true}
	c.Access(0, acc2)
	_, pte, dataPTE = c.Occupancy()
	if pte != 2 || dataPTE != 1 {
		t.Errorf("instr PTE should not be data PTE: pte=%d dataPTE=%d", pte, dataPTE)
	}
}

func TestSTLBMissBitNotOnPTE(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	acc := &arch.Access{Addr: 0x2000, Kind: arch.PTW, IsPTE: true, STLBMiss: true}
	c.Access(0, acc)
	si, w := c.lookup(arch.BlockNumber(0x2000), 0)
	if c.setAt(si).Lines[w].STLBMiss() {
		t.Error("PTE blocks must not carry the STLBMiss demand bit")
	}
}

func TestThreadTagging(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	c.Access(0, &arch.Access{Addr: 0x1000, Kind: arch.Load, Thread: 0})
	if c.Contains(0x1000, 1) {
		t.Error("thread 1 should not see thread 0's block")
	}
	if !c.Contains(0x1000, 0) {
		t.Error("thread 0 should see its block")
	}
}

func TestPrefetcherIntegration(t *testing.T) {
	next := &fixedLevel{latency: 10}
	var lv stats.Level
	c := New("test", config.CacheConfig{Sets: 64, Ways: 4, Latency: 5, MSHRs: 8},
		replacement.NewLRU(), next, &lv)
	c.SetPrefetcher(prefetch.NewNextLine())
	c.Access(0, load(0x1000))
	if c.PrefetchIssued != 1 {
		t.Fatalf("PrefetchIssued = %d, want 1", c.PrefetchIssued)
	}
	if !c.Contains(0x1040, 0) {
		t.Fatal("next-line block not prefetched")
	}
	// Demand access to the prefetched block: a hit, counted useful.
	c.Access(100, load(0x1040))
	if c.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d, want 1", c.PrefetchUseful)
	}
	// Prefetch traffic must not appear in demand stats.
	if lv.TotalMisses() != 1 || lv.TotalHits() != 1 {
		t.Errorf("demand stats polluted: %d misses, %d hits", lv.TotalMisses(), lv.TotalHits())
	}
}

func TestPrefetchDoesNotTrainPrefetcher(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", config.CacheConfig{Sets: 64, Ways: 4, Latency: 5, MSHRs: 8},
		replacement.NewLRU(), next, nil)
	c.SetPrefetcher(prefetch.NewNextLine())
	c.Access(0, load(0x1000))
	// Exactly one prefetch: the prefetch access itself must not recurse.
	if c.PrefetchIssued != 1 {
		t.Errorf("PrefetchIssued = %d, want 1 (no recursion)", c.PrefetchIssued)
	}
}

func TestXPTPInsideCache(t *testing.T) {
	// End-to-end: with xPTP, data-PTE blocks survive demand floods that
	// would evict them under LRU.
	mk := func(pol replacement.Policy) *Cache {
		return New("l2", config.CacheConfig{Sets: 1, Ways: 8, Latency: 5, MSHRs: 8},
			pol, &fixedLevel{latency: 100}, nil)
	}
	pteAcc := func() *arch.Access {
		return &arch.Access{Addr: 0x7000000, Kind: arch.PTW, Class: arch.DataClass, IsPTE: true}
	}

	lru := mk(replacement.NewLRU())
	lru.Access(0, pteAcc())
	for i := 1; i <= 8; i++ {
		lru.Access(0, load(arch.Addr(i)<<6))
	}
	if lru.Contains(0x7000000, 0) {
		t.Error("LRU should have evicted the PTE block")
	}

	// xPTP lives in internal/core; emulate its protecting victim here via
	// the PTP baseline to validate the cache-side plumbing.
	ptp := mk(replacement.NewPTP())
	ptp.Access(0, pteAcc())
	for i := 1; i <= 8; i++ {
		ptp.Access(0, load(arch.Addr(i)<<6))
	}
	if !ptp.Contains(0x7000000, 0) {
		t.Error("PTP should have protected the PTE block")
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	for _, cfg := range []config.CacheConfig{
		{Sets: 3, Ways: 2, Latency: 1, MSHRs: 1},
		{Sets: 4, Ways: config.MaxCacheWays + 1, Latency: 1, MSHRs: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%d sets x %d ways: expected panic", cfg.Sets, cfg.Ways)
				}
			}()
			New("bad", cfg, replacement.NewLRU(), &fixedLevel{}, nil)
		}()
	}
}

// TestTagsHoldThirtyTwoBits: the largest block number a 32-bit tag
// holds, one below NoTag, fills, hits and is written back at its own
// address, and stays apart from block 0.
func TestTagsHoldThirtyTwoBits(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	var wb []arch.Addr
	c.SetWriteback(func(_ uint64, addr arch.Addr) { wb = append(wb, addr) })
	last := arch.Addr(replacement.NoTag-1) << arch.BlockBits
	c.Access(0, &arch.Access{Addr: last, Kind: arch.Store})
	c.Access(20, load(0))
	if !c.Contains(last, 0) || !c.Contains(0, 0) || next.accesses != 2 {
		t.Fatalf("blocks %#x and 0: resident %v and %v after %d misses",
			last>>arch.BlockBits, c.Contains(last, 0), c.Contains(0, 0), next.accesses)
	}
	// Two more blocks of the same set evict the dirty one.
	for i := arch.Addr(1); i <= 2; i++ {
		c.Access(40*uint64(i), load(last-i*arch.Addr(c.cfg.Sets)*arch.BlockSize))
	}
	if len(wb) != 1 || wb[0] != last {
		t.Fatalf("writebacks %#x, want [%#x]", wb, last)
	}
}

func TestStackInvariantAfterTraffic(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	for i := 0; i < 1000; i++ {
		c.Access(uint64(i), load(arch.Addr(i%37)<<6))
	}
	for si := 0; si < c.cfg.Sets; si++ {
		if set := c.setAt(si); !replacement.CheckStackInvariant(set.Stack) {
			t.Fatalf("set %d stack invariant broken", si)
		}
	}
}

func TestOccupancyCountsKinds(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", smallCfg(), replacement.NewLRU(), next, nil)
	c.Access(0, &arch.Access{Addr: 0x1000, Kind: arch.Load})
	c.Access(0, &arch.Access{Addr: 0x2000, Kind: arch.PTW, Class: arch.DataClass, IsPTE: true})
	blocks, pte, dataPTE := c.Occupancy()
	if blocks != 2 || pte != 1 || dataPTE != 1 {
		t.Errorf("occupancy = (%d,%d,%d), want (2,1,1)", blocks, pte, dataPTE)
	}
}

func TestPrefetchedBlockCountedUsefulOnce(t *testing.T) {
	next := &fixedLevel{latency: 10}
	c := New("test", config.CacheConfig{Sets: 64, Ways: 4, Latency: 5, MSHRs: 8},
		replacement.NewLRU(), next, nil)
	c.SetPrefetcher(prefetch.NewNextLine())
	c.Access(0, load(0x1000)) // prefetches 0x1040
	c.Access(100, load(0x1040))
	c.Access(200, load(0x1040))
	if c.PrefetchUseful != 1 {
		t.Errorf("PrefetchUseful = %d, want exactly 1", c.PrefetchUseful)
	}
}

func TestMergedMissOnInFlightPrefetch(t *testing.T) {
	// A demand access to a block whose prefetch is still in flight merges
	// with it (counts as a miss, completes at the fill time).
	next := &fixedLevel{latency: 500}
	var lv stats.Level
	c := New("test", config.CacheConfig{Sets: 64, Ways: 4, Latency: 5, MSHRs: 8},
		replacement.NewLRU(), next, &lv)
	c.SetPrefetcher(prefetch.NewNextLine())
	c.Access(0, load(0x1000)) // issues prefetch of 0x1040 completing ~t=510
	done := c.Access(10, load(0x1040))
	if done < 500 {
		t.Errorf("demand on in-flight prefetch completed at %d, want >= fill time", done)
	}
	if lv.Misses[stats.BData] != 2 {
		t.Errorf("both demand accesses should count as misses, got %d", lv.Misses[stats.BData])
	}
}
