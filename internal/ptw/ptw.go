// Package ptw implements the hardware page-table walker and the split
// page structure caches (PSCs) of Table 1. A walk consults the PSCs to
// skip upper radix levels, then issues one PTW memory reference per
// remaining level into the cache hierarchy (L2C → LLC → DRAM), serially —
// each level's PTE must be read before the next level's address is known.
// Up to PageWalkers walks are in flight at once.
package ptw

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/stats"
	"itpsim/internal/vm"
)

// pscEntry is one page-structure-cache entry.
type pscEntry struct {
	valid  bool
	tag    uint64
	thread uint8
	lru    uint8
}

// psc is one small set-associative page structure cache for a single
// radix level.
type psc struct {
	level   int
	sets    [][]pscEntry
	setMask uint64
}

func newPSC(level int, cfg config.PSCConfig) *psc {
	ways := cfg.Ways
	if ways <= 0 || ways > cfg.Entries {
		ways = cfg.Entries
	}
	nsets := cfg.Entries / ways
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("ptw: PSCL%d needs a power-of-two set count, got %d", level, nsets))
	}
	p := &psc{level: level, sets: make([][]pscEntry, nsets), setMask: uint64(nsets - 1)}
	for i := range p.sets {
		p.sets[i] = make([]pscEntry, ways)
	}
	return p
}

// tagFor identifies the radix path down to (and including) this level's
// index: all VA bits above the level's child region.
//
//itp:hotpath
func (p *psc) tagFor(va arch.Addr) uint64 {
	return uint64(va >> vm.LevelShift(p.level))
}

//itp:hotpath
func (p *psc) lookup(va arch.Addr, thread uint8) bool {
	tag := p.tagFor(va)
	set := p.sets[tag&p.setMask]
	for i := range set {
		if set[i].tag == tag && set[i].valid && set[i].thread == thread {
			for j := range set {
				if set[j].lru < set[i].lru {
					set[j].lru++
				}
			}
			set[i].lru = 0
			return true
		}
	}
	return false
}

//itp:hotpath
func (p *psc) insert(va arch.Addr, thread uint8) {
	tag := p.tagFor(va)
	set := p.sets[tag&p.setMask]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].tag == tag && set[i].thread == thread {
			victim = i
			break
		}
		if set[i].lru > set[victim].lru {
			victim = i
		}
	}
	for j := range set {
		if set[j].lru < set[victim].lru {
			set[j].lru++
		}
	}
	set[victim] = pscEntry{valid: true, tag: tag, thread: thread, lru: 0}
}

// Walker is the hardware page-table walker.
type Walker struct {
	// pscs[0] is PSCL5 ... pscs[3] is PSCL2.
	pscs       [4]*psc
	pscLatency uint64
	walkers    []uint64 // busy-until cycle per walker
	mem        cache.Level
	sim        *stats.Sim

	// acc is the scratch access record the per-level PTE reads reuse; a
	// loop local passed through the cache.Level interface would escape to
	// the heap on every walk step.
	acc arch.Access
}

// New builds a walker that issues PTE references into mem (normally the
// L2C). sim may be nil.
func New(cfg *config.SystemConfig, mem cache.Level, sim *stats.Sim) *Walker {
	w := &Walker{
		pscLatency: cfg.PSCLatency,
		walkers:    make([]uint64, cfg.PageWalkers),
		mem:        mem,
		sim:        sim,
	}
	for i, level := 0, 5; i < 4; i, level = i+1, level-1 {
		w.pscs[i] = newPSC(level, cfg.PSC[i])
	}
	return w
}

// pscIndex maps radix level (5..2) to the pscs array index.
//
//itp:hotpath
func pscIndex(level int) int { return 5 - level }

// Walk performs a page walk for the translation tr of va. It returns the
// cycle at which the translation is available and the number of memory
// references issued. Walk serialises the per-level PTE reads and models
// walker occupancy; PTE reads carry the translation's class so the cache
// hierarchy tags filled blocks for the translation-aware policies.
//
//itp:hotpath
func (w *Walker) Walk(now uint64, va arch.Addr, tr *vm.Translation, class arch.Class, pc uint64, thread uint8) (done uint64, memRefs int) {
	// Acquire the least-busy walker.
	best := 0
	for i := range w.walkers {
		if w.walkers[i] < w.walkers[best] {
			best = i
		}
	}
	start := now
	if w.walkers[best] > start {
		start = w.walkers[best]
	}

	leafLevel := tr.Steps[tr.NumSteps-1].Level

	// Consult PSCs deepest-coverage first: a PSCLk hit means levels 5..k
	// are resolved and the walk resumes at level k-1. Leaf levels are
	// never PSC-cached (that is the TLB's job).
	t := start + w.pscLatency
	firstStep := 0
	for level := leafLevel + 1; level <= 5; level++ {
		if w.pscs[pscIndex(level)].lookup(va, thread) {
			if w.sim != nil {
				w.sim.PSCHits[pscIndex(level)]++
			}
			// Skip all steps at or above this level.
			for firstStep < tr.NumSteps && tr.Steps[firstStep].Level >= level {
				firstStep++
			}
			break
		}
	}

	// Issue the remaining PTE reads serially.
	for i := firstStep; i < tr.NumSteps; i++ {
		step := tr.Steps[i]
		acc := &w.acc
		*acc = arch.Access{
			Addr:   step.PTEAddr,
			PC:     pc,
			Kind:   arch.PTW,
			Class:  class,
			IsPTE:  true,
			Thread: thread,
		}
		t = w.mem.Access(t, acc)
		memRefs++
		// Install the traversed non-leaf levels into their PSCs.
		if step.Level > leafLevel {
			w.pscs[pscIndex(step.Level)].insert(va, thread)
		}
	}

	w.walkers[best] = t
	if w.sim != nil {
		w.sim.PageWalks[class]++
		w.sim.WalkLatSum[class] += arch.Cycle(t - now)
	}
	return t, memRefs
}
