// Package cache implements the set-associative cache levels of the
// hierarchy: tag arrays with exact recency stacks, MSHRs that merge and
// bound outstanding misses, write-back of dirty victims, prefetch fills,
// and the PTE Type-bit propagation xPTP relies on (an access that misses
// carries its Type through the MSHR and writes it into the filled block,
// step 3.1 of the paper's Figure 7).
package cache

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/pool"
	"itpsim/internal/prefetch"
	"itpsim/internal/replacement"
	"itpsim/internal/stats"
)

// Level is anything that can serve a block request and report when the
// data is available: a Cache or the DRAM terminal.
type Level interface {
	Access(now uint64, acc *arch.Access) (done uint64)
}

// mshrEntry tracks one outstanding miss.
type mshrEntry struct {
	block   uint64
	thread  uint8
	valid   bool
	readyAt uint64
}

// Cache is one set-associative cache level.
type Cache struct {
	name    string
	cfg     config.CacheConfig
	ways    int
	setMask uint64
	// Every way of every set, flat: set si owns [si*ways, (si+1)*ways) of
	// each array. tags holds the block number in 32 bits, which every
	// block of arch.PhysMemBytes fits (replacement.NoTag when the way is
	// empty), stack its recency-stack position, lines the rest of its
	// metadata. sigs and etas are the per-way columns the policy asks
	// for (replacement.Columnar), nil when it keeps none.
	tags  []uint32
	stack []uint8
	lines []replacement.Line
	sigs  []uint16
	etas  []uint64
	// view is the replacement.Set handed to the policy, re-pointed at
	// one set per access by viewSet. Reusing it keeps the interface
	// call from allocating a Set per access; like pfAcc below it is safe
	// across the recursive prefetch Access, which re-points it only
	// after the outer access's policy calls are done.
	view replacement.Set

	policy replacement.Policy
	next   Level
	stats  *stats.Level
	mshrs  []mshrEntry

	prefetcher prefetch.Prefetcher
	// writebackFn lets dirty evictions consume downstream bandwidth
	// without the evicting access waiting on them.
	writebackFn func(now uint64, addr arch.Addr)

	// Writebacks counts dirty evictions; PrefetchIssued/PrefetchUseful
	// track prefetcher effectiveness. EvictPTE/EvictDataPTE count
	// evictions of PTE-holding and data-PTE-holding blocks — the eviction
	// pressure xPTP is designed to relieve, read by the windowed metrics.
	Writebacks     uint64
	PrefetchIssued uint64
	PrefetchUseful uint64
	EvictPTE       uint64
	EvictDataPTE   uint64

	// pfAcc is the scratch access train hands to the prefetch path. Safe
	// to reuse across the recursive Access call: prefetch-kind accesses
	// never re-enter train, and no level retains the pointer.
	pfAcc arch.Access

	// mshrReady bounds, per bucket of blocks (mshrBucket), the readyAt of
	// the MSHRs whose block falls in the bucket: Access raises it as it
	// sets an entry's readyAt, and mshrLookup scans no entry when it is
	// not past now. It only summarises mshrs, so HashState and
	// AuditState do not read it.
	mshrReady [64]uint64

	// store owns tags, stack, lines and the columns; Release hands it
	// back to stores. Last, so the fields every access reads keep their
	// offsets.
	store *storage
}

// storage is the flat per-way state of one cache, sized sets×ways. It
// outlives its cache: Release returns it to stores under its size, and
// the next New of that size takes it from there. A column is made the
// first time a cache whose policy keeps it takes the storage, and stays
// with the storage from then on.
type storage struct {
	tags  []uint32
	stack []uint8
	lines []replacement.Line
	sigs  []uint16
	etas  []uint64
}

// stores recycles released caches' storage, keyed by sets×ways. A sampled
// sweep's profiling machine and its representatives never meet in one
// owner, so the pool is shared by every machine in the process.
var stores pool.Keyed[*storage]

// New creates a cache level. next is the level misses go to; st is the
// statistics sink (may be nil for throwaway caches in tests). Its arrays
// come from the pool when a released cache of the same size left some
// there; New clears recycled lines and columns and runs InitSet on every
// set, so recycled arrays start exactly as new ones. It allocates only
// the columns pol asks for (replacement.ColumnsOf).
func New(name string, cfg config.CacheConfig, pol replacement.Policy, next Level, st *stats.Level) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: sets must be a positive power of two, got %d", name, cfg.Sets))
	}
	if cfg.Ways <= 0 || cfg.Ways > config.MaxCacheWays {
		panic(fmt.Sprintf("cache %s: ways must be in [1, %d], got %d", name, config.MaxCacheWays, cfg.Ways))
	}
	n := cfg.Sets * cfg.Ways
	sto, ok := stores.Get(n)
	if !ok {
		sto = &storage{tags: make([]uint32, n), stack: make([]uint8, n), lines: make([]replacement.Line, n)}
	} else {
		clear(sto.lines)
	}
	cols := replacement.ColumnsOf(pol)
	var sigs []uint16
	var etas []uint64
	if cols&replacement.SigColumn != 0 {
		sigs = column(&sto.sigs, n)
	}
	if cols&replacement.ETAColumn != 0 {
		etas = column(&sto.etas, n)
	}
	c := &Cache{
		name:    name,
		cfg:     cfg,
		ways:    cfg.Ways,
		setMask: uint64(cfg.Sets - 1),
		tags:    sto.tags,
		stack:   sto.stack,
		lines:   sto.lines,
		sigs:    sigs,
		etas:    etas,
		store:   sto,
		policy:  pol,
		next:    next,
		stats:   st,
		mshrs:   make([]mshrEntry, cfg.MSHRs),
	}
	for si := 0; si < cfg.Sets; si++ {
		replacement.InitSet(c.viewSet(si))
	}
	return c
}

// column returns the storage column *col, cleared, making it with n
// entries if the storage has none yet.
func column[T uint16 | uint64](col *[]T, n int) []T {
	if *col == nil {
		*col = make([]T, n)
	} else {
		clear(*col)
	}
	return *col
}

// Release returns the cache's arrays to the pool. The owner calls it
// once it has read everything it needs from the cache; the cache must not
// be used afterwards, and panics if it is rather than reading another
// cache's state. Release is idempotent.
func (c *Cache) Release() {
	if c.store == nil {
		return
	}
	stores.Put(len(c.store.tags), c.store)
	c.store, c.tags, c.stack, c.lines, c.view = nil, nil, nil, nil, replacement.Set{}
	c.sigs, c.etas = nil, nil
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.name }

// SetPrefetcher attaches a prefetcher trained by demand accesses.
func (c *Cache) SetPrefetcher(p prefetch.Prefetcher) { c.prefetcher = p }

// SetWriteback attaches the dirty-eviction sink (normally DRAM bandwidth).
func (c *Cache) SetWriteback(fn func(now uint64, addr arch.Addr)) { c.writebackFn = fn }

func (c *Cache) setFor(block uint64) int { return int(block & c.setMask) }

// setAt returns a view of set si's ways.
func (c *Cache) setAt(si int) replacement.Set {
	var s replacement.Set
	c.point(&s, si)
	return s
}

// viewSet points the scratch view at set si and returns it.
func (c *Cache) viewSet(si int) *replacement.Set {
	c.point(&c.view, si)
	return &c.view
}

// point points s at set si's ways. A column the cache does not keep
// stays nil in s.
func (c *Cache) point(s *replacement.Set, si int) {
	lo, hi := si*c.ways, (si+1)*c.ways
	s.Tags, s.Stack, s.Lines = c.tags[lo:hi], c.stack[lo:hi], c.lines[lo:hi]
	if c.sigs != nil {
		s.Sigs = c.sigs[lo:hi]
	}
	if c.etas != nil {
		s.ETAs = c.etas[lo:hi]
	}
}

// lookup returns (setIdx, way) with way == -1 on miss. It scans only the
// set's tags; no block number equals NoTag, so a matching tag is a valid
// way, and the thread is checked only then.
func (c *Cache) lookup(block uint64, thread uint8) (int, int) {
	si := c.setFor(block)
	base := si * c.ways
	for w, tag := range c.tags[base : base+c.ways] {
		if uint64(tag) == block && c.lines[base+w].Thread == thread {
			return si, w
		}
	}
	return si, -1
}

// Contains reports block residency without touching replacement state.
func (c *Cache) Contains(addr arch.Addr, thread uint8) bool {
	_, w := c.lookup(arch.BlockNumber(addr), thread)
	return w >= 0
}

// record notes an access outcome in the statistics sink.
func (c *Cache) record(acc *arch.Access, hit bool) {
	if c.stats != nil {
		c.stats.Record(stats.BucketFor(acc), hit)
	}
}

// mshrBucket returns the mshrReady bucket of block: its top 6 bits after
// a Fibonacci multiply, so blocks of one set spread over the buckets.
func mshrBucket(block uint64) int { return int(block * 0x9e3779b97f4a7c15 >> 58) }

// mshrLookup returns an in-flight entry for block, or nil.
func (c *Cache) mshrLookup(now uint64, block uint64, thread uint8) *mshrEntry {
	if c.mshrReady[mshrBucket(block)] <= now {
		return nil
	}
	for i := range c.mshrs {
		e := &c.mshrs[i]
		if e.block == block && e.valid && e.thread == thread && e.readyAt > now {
			return e
		}
	}
	return nil
}

// mshrAllocate finds a free MSHR; if all are busy the miss must wait
// until the earliest completes (the returned start time).
func (c *Cache) mshrAllocate(now uint64) (*mshrEntry, uint64) {
	var victim *mshrEntry
	earliest := ^uint64(0)
	for i := range c.mshrs {
		e := &c.mshrs[i]
		if !e.valid || e.readyAt <= now {
			return e, now
		}
		if e.readyAt < earliest {
			victim, earliest = e, e.readyAt
		}
	}
	return victim, earliest
}

// fill installs a block, evicting a victim per policy; returns the way.
func (c *Cache) fill(si int, acc *arch.Access) int {
	set := c.viewSet(si)
	way := c.policy.Victim(si, set, acc)
	line := &set.Lines[way]
	if set.Valid(way) {
		c.policy.OnEvict(si, set, way)
		if line.IsPTE() {
			c.EvictPTE++
		}
		if line.IsDataPTE() {
			c.EvictDataPTE++
		}
		if line.Dirty() {
			c.Writebacks++
			if c.writebackFn != nil {
				c.writebackFn(0, arch.Addr(set.Tags[way])<<arch.BlockBits)
			}
		}
	}
	// The stack position stays: the way keeps its place in the
	// permutation until the policy's OnFill moves it.
	set.Tags[way] = uint32(acc.Addr >> arch.BlockBits)
	*line = replacement.Line{PC: uint32(acc.PC), Kind: acc.Kind, Thread: acc.Thread}
	line.SetPTE(acc.IsPTE)
	line.SetDataPTE(acc.IsPTE && acc.Class == arch.DataClass)
	line.SetSTLBMiss(acc.STLBMiss && !acc.IsPTE)
	line.SetPrefetched(acc.Kind == arch.Prefetch)
	line.SetDirty(acc.Kind == arch.Store)
	c.policy.OnFill(si, set, way, acc)
	return way
}

// Access implements Level. It returns the cycle at which the block is
// available to the requester; demand misses are recorded with their
// observed latency.
func (c *Cache) Access(now uint64, acc *arch.Access) uint64 {
	block := acc.Addr >> arch.BlockBits
	si, way := c.lookup(block, acc.Thread)
	hitTime := now + c.cfg.Latency

	if way >= 0 {
		if acc.Kind == arch.Prefetch {
			// Prefetch into a resident block: nothing to do.
			return hitTime
		}
		set := c.viewSet(si)
		line := &set.Lines[way]
		// The block may be resident but still in flight (fills are
		// installed eagerly; the MSHR tracks when data actually
		// arrives). Such an access is a merged miss.
		if e := c.mshrLookup(now, block, acc.Thread); e != nil {
			c.record(acc, false)
			if c.stats != nil && acc.Kind.IsDemand() {
				c.stats.RecordMissLatency(e.readyAt - now)
			}
			if line.Prefetched() {
				line.SetPrefetched(false)
				c.PrefetchUseful++
			}
			if acc.Kind == arch.Store {
				line.SetDirty(true)
			}
			c.policy.OnHit(si, set, way, acc)
			if e.readyAt > hitTime {
				return e.readyAt
			}
			return hitTime
		}
		c.record(acc, true)
		if line.Prefetched() {
			line.SetPrefetched(false)
			c.PrefetchUseful++
		}
		if acc.Kind == arch.Store {
			line.SetDirty(true)
		}
		c.policy.OnHit(si, set, way, acc)
		c.train(now, acc)
		return hitTime
	}

	// Miss. Merge with an outstanding fill for the same block.
	if e := c.mshrLookup(now, block, acc.Thread); e != nil {
		if acc.Kind != arch.Prefetch {
			c.record(acc, false)
			if c.stats != nil && acc.Kind.IsDemand() {
				c.stats.RecordMissLatency(e.readyAt - now)
			}
		}
		if e.readyAt > hitTime {
			return e.readyAt
		}
		return hitTime
	}

	// Allocate an MSHR (possibly stalling until one frees up) and fetch
	// from the next level.
	entry, start := c.mshrAllocate(now)
	if acc.Kind != arch.Prefetch {
		c.record(acc, false)
	}
	done := c.next.Access(start+c.cfg.Latency, acc)
	entry.valid = true
	entry.block = block
	entry.thread = acc.Thread
	entry.readyAt = done
	if r := &c.mshrReady[mshrBucket(block)]; done > *r {
		*r = done
	}

	c.fill(si, acc)
	if acc.Kind != arch.Prefetch && c.stats != nil && acc.Kind.IsDemand() {
		c.stats.RecordMissLatency(done - now)
	}
	c.train(now, acc)
	return done
}

// train feeds the prefetcher and issues its suggestions as Prefetch
// accesses into this cache (fills propagate from the next level).
func (c *Cache) train(now uint64, acc *arch.Access) {
	if c.prefetcher == nil || acc.Kind == arch.Prefetch || acc.Kind == arch.PTW {
		return
	}
	for _, addr := range c.prefetcher.Train(acc) {
		if c.Contains(addr, acc.Thread) {
			continue
		}
		c.PrefetchIssued++
		pf := &c.pfAcc
		*pf = arch.Access{Addr: addr, PC: acc.PC, Kind: arch.Prefetch, Thread: acc.Thread}
		c.Access(now, pf)
	}
}

// Occupancy returns how many valid blocks currently hold PTE payload and
// how many of those serve data translations (debug/analysis aid).
func (c *Cache) Occupancy() (blocks, pte, dataPTE int) {
	for i, tag := range c.tags {
		if tag == replacement.NoTag {
			continue
		}
		blocks++
		if c.lines[i].IsPTE() {
			pte++
		}
		if c.lines[i].IsDataPTE() {
			dataPTE++
		}
	}
	return
}
