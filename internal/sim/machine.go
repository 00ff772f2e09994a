// Package sim is the trace-driven machine model: a decoupled front-end
// (FTQ + FDIP-style instruction prefetch) whose stalls — crucially,
// instruction address translation misses — serialise into fetch, an
// out-of-order back-end whose ROB window hides data-miss latency, the
// two-level TLB hierarchy, the page-table walker, three cache levels, and
// DRAM. A machine is an N-core CMP: each core owns private L1I/L1D,
// ITLB/DTLB, a branch predictor, and its own decode-ahead workload
// stream, while the STLB, L2C, LLC, page-table walker (with its PSCs),
// and DRAM are shared contended resources. The classic single-core
// machine (Cores <= 1) additionally supports two SMT threads on core 0
// (Section 5.1's extension: fetch alternates threads every cycle and all
// structures are shared).
package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"itpsim/internal/arch"
	"itpsim/internal/audit"
	"itpsim/internal/branch"
	"itpsim/internal/cache"
	"itpsim/internal/config"
	"itpsim/internal/core"
	"itpsim/internal/dram"
	"itpsim/internal/prefetch"
	"itpsim/internal/ptw"
	"itpsim/internal/replacement"
	"itpsim/internal/stats"
	"itpsim/internal/tlb"
	"itpsim/internal/vm"
	"itpsim/internal/workload"
)

// coreState is one core's private microarchitecture: first-level TLBs,
// L1 caches, branch-predictor state, and the hardware threads scheduled
// on it (one per core in CMP mode; up to two on core 0 under SMT).
type coreState struct {
	id         uint8
	itlb, dtlb *tlb.TLB
	l1i, l1d   *cache.Cache

	bpRNG uint64
	// perceptron is non-nil when the config selects the real
	// hashed-perceptron direction predictor.
	perceptron *branch.Perceptron

	// threads is this core's slice of the per-run pipeline state, only
	// touched by the run loop.
	threads []*threadCtx
}

// Machine is a CMP — N cores plus the shared memory system.
type Machine struct {
	cfg   config.SystemConfig
	Stats *stats.Sim

	// cores holds the per-core private structures; everything below is
	// shared by all cores and contended for real (MSHR pressure, set
	// conflicts, DRAM bank state).
	cores []*coreState

	stlb     tlb.Store
	l2c, llc *cache.Cache
	mem      *dram.DRAM
	walker   *ptw.Walker
	// pts is one page table per tenant (per hardware thread); they share
	// one physical allocator, so tenants contend for — and interleave
	// in — physical memory exactly as co-located processes do.
	pts []*vm.PageTable

	ctrl  *core.Controller
	chirp *tlb.CHiRP

	// stlbMSHRs track in-flight page walks so concurrent misses to the
	// same page merge instead of walking twice; each entry carries the
	// Type (class) bit of Figure 7. The file is shared CMP-wide: under
	// co-location, one tenant's walk burst can exhaust it and delay
	// every other tenant's walks.
	stlbMSHRs []stlbMSHREntry

	// frontBound/backBound count dispatches limited by fetch vs by the
	// ROB (debug attribution).
	frontBound, backBound uint64

	// retiredLocal is the authoritative retired-instruction counter,
	// owned by the run loop. retiredTotal mirrors it for concurrent
	// readers: the step path publishes in batches (retirePublishMask) and
	// the run loop publishes exactly on entry/exit, so a supervisor's
	// Progress sample is at most a batch stale while a run is in flight
	// and exact once it returns.
	retiredLocal uint64
	retiredTotal atomic.Uint64
	// interrupted requests that the run loop stop at the next instruction
	// boundary; set asynchronously via Interrupt.
	interrupted atomic.Bool
	// diag holds the last diagnostic snapshot published by the run loop
	// itself (so readers never race with the simulation's own structures).
	diag atomic.Pointer[string]
	// threads is the per-run pipeline state, only touched by the run loop.
	threads []*threadCtx

	// met is the observability attachment (nil until InstrumentMetrics).
	met *machineMetrics
	// branchMispredicts counts resolved branch mispredicts across all
	// threads; stats.Sim has no field for it, and the windowed metrics
	// read it as a phase feature.
	branchMispredicts uint64
	// maxRetireCycle is the latest retire cycle seen across threads —
	// the cycle clock the windowed sampler stamps windows with. Typed
	// arch.Cycle at this boundary so it cannot be confused with the
	// retired-instruction counters it travels next to.
	maxRetireCycle arch.Cycle

	// acc is the scratch access record the ifetch/dataAccess/fdipPrefetch
	// paths reuse. Access records flow down the hierarchy by pointer and
	// no level or policy retains them past the call, so a single
	// per-machine scratch keeps the hot paths allocation-free (a local
	// passed through the cache.Level interface escapes to the heap on
	// every instruction).
	acc arch.Access

	// funcClock is the functional-warmup clock: WarmFunctional advances
	// it one cycle per consumed instruction so the hierarchy's timing
	// state (MSHR readyAt, DRAM bank state) stays causally ordered, and
	// the detailed run that follows starts its threads at this cycle.
	// Zero on every machine that never warms functionally, which keeps
	// all pre-existing paths bit-identical. warmBlock/warmHasBlock
	// dedupe per-block ifetches during functional warmup, mirroring the
	// detailed front end's block-change fetch.
	funcClock    uint64
	warmBlock    arch.Addr
	warmHasBlock bool

	// beacons is the deterministic state-beacon log (nil = beacons off);
	// owned by the run loop, see beacon.go.
	beacons *beaconLog
	// auditor runs the periodic structural invariant checks (nil = audits
	// off). auditNext/auditEvery schedule passes on retire boundaries;
	// auditErr latches the first violation verdict for RunWarmup to
	// return; auditVerdict publishes the latest verdict for Snapshot
	// readers on other goroutines.
	auditor      *audit.Auditor
	auditEvery   arch.Instr
	auditNext    arch.Instr
	auditErr     error
	auditVerdict atomic.Pointer[string]
}

// BoundSplit reports the fraction of dispatches limited by the front end.
func (m *Machine) BoundSplit() (front, back uint64) { return m.frontBound, m.backBound }

// stlbMSHREntry is one in-flight STLB miss.
type stlbMSHREntry struct {
	vpn     uint64 // 4KB-granular VPN (2MB walks merge via their first 4KB probe)
	thread  uint8
	class   arch.Class
	valid   bool
	readyAt uint64
	ppn     uint64
	bits    uint8
}

// statsDRAM adapts the DRAM model to also count accesses into stats.Sim.
type statsDRAM struct {
	d   *dram.DRAM
	sim *stats.Sim
}

//itp:hotpath
func (s *statsDRAM) Access(now uint64, acc *arch.Access) uint64 {
	s.sim.DRAMAccesses++
	return s.d.Access(now, acc)
}

// NewMachine builds a machine from the configuration, resolving the
// policy names of Table 2. Recognised STLB policies: lru, itp, chirp,
// problru, random. L2C policies: the replacement baselines plus xptp
// (adaptive per Section 4.3.1; set XPTP.T1 <= 0 for always-on). LLC
// policies: the replacement baselines.
func NewMachine(cfg config.SystemConfig) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nCores := cfg.Cores
	if nCores < 1 {
		nCores = 1
	}
	// One tenant per core; the single-core machine keeps two tenant
	// slots so the SMT mode has one per thread. The tenant count fixes
	// the page-table set and the per-tenant stats views up front (the
	// stats slice is pointed into below and must never reallocate).
	nTenants := nCores
	if nTenants < 2 {
		nTenants = 2
	}
	m := &Machine{cfg: cfg, Stats: stats.NewSim()}
	m.Stats.EnsureTenants(nTenants)

	// Physical memory: sized generously for the workload footprints. The
	// allocator is shared, so page-table creation order is part of the
	// deterministic contract: tenant i's table is always built i-th.
	alloc := vm.NewPhysAlloc(64 << 30)
	m.pts = make([]*vm.PageTable, nTenants)
	for i := range m.pts {
		m.pts[i] = vm.NewPageTable(alloc, cfg.HugePageFraction, uint64(i+1))
	}

	// Memory hierarchy, bottom up.
	m.mem = dram.New(cfg.DRAM)
	memLevel := &statsDRAM{d: m.mem, sim: m.Stats}

	llcPol, err := replacement.FromName(cfg.LLCPolicy, cfg.LLC.Sets, cfg.LLC.Ways, 0xcafe)
	if err != nil {
		return nil, fmt.Errorf("sim: LLC policy: %w", err)
	}
	m.llc = cache.New("LLC", cfg.LLC, llcPol, memLevel, &m.Stats.LLC)
	m.llc.SetWriteback(m.mem.Writeback)

	var l2cPol replacement.Policy
	switch cfg.L2CPolicy {
	case "xptp":
		m.ctrl = core.NewController(cfg.XPTP)
		l2cPol = core.NewAdaptiveXPTP(cfg.XPTP, m.ctrl.Enabled)
	case "xptp-static":
		l2cPol = core.NewXPTP(cfg.XPTP)
	case "xptp-emissary":
		// The Section 7 future-work combination: xPTP's data-PTE
		// protection plus Emissary's critical-code protection.
		l2cPol = replacement.NewXPTPEmissary(cfg.XPTP.K)
	default:
		l2cPol, err = replacement.FromName(cfg.L2CPolicy, cfg.L2C.Sets, cfg.L2C.Ways, 0xbeef)
		if err != nil {
			return nil, fmt.Errorf("sim: L2C policy: %w", err)
		}
	}
	m.l2c = cache.New("L2C", cfg.L2C, l2cPol, m.llc, &m.Stats.L2C)
	m.l2c.SetWriteback(m.mem.Writeback)
	if cfg.L2CStride {
		m.l2c.SetPrefetcher(prefetch.NewStride(1024, 2))
	}

	newSTLBPolicy := func() (tlb.Policy, error) {
		switch cfg.STLBPolicy {
		case "lru":
			return tlb.NewLRU(), nil
		case "itp":
			return core.NewITP(cfg.ITP), nil
		case "chirp":
			c := tlb.NewCHiRP(cfg.STLB.Ways)
			m.chirp = c
			return c, nil
		case "problru":
			return core.NewProbLRU(cfg.ProbKeepInstr, 0x5117), nil
		default:
			return nil, fmt.Errorf("sim: unknown STLB policy %q", cfg.STLBPolicy)
		}
	}
	if cfg.SplitSTLB {
		sets := cfg.STLB.Sets / 2
		pi, err := newSTLBPolicy()
		if err != nil {
			return nil, err
		}
		pd, err := newSTLBPolicy()
		if err != nil {
			return nil, err
		}
		m.stlb = tlb.NewSplit(sets, cfg.STLB.Ways, pi, pd)
	} else {
		p, err := newSTLBPolicy()
		if err != nil {
			return nil, err
		}
		m.stlb = tlb.New("STLB", cfg.STLB.Sets, cfg.STLB.Ways, p)
	}

	// Page walks enter the hierarchy at the L2C.
	m.walker = ptw.New(&cfg, m.l2c, m.Stats)
	m.stlbMSHRs = make([]stlbMSHREntry, cfg.STLB.MSHRs)

	// Per-core private structures. L1 stats sinks point at the per-core
	// views; the machine-level aggregates are recomputed as their exact
	// sums at every run end (stats.Sim.AggregateTenants).
	m.cores = make([]*coreState, nCores)
	for i := range m.cores {
		ten := &m.Stats.Cores[i]
		c := &coreState{id: uint8(i), bpRNG: bpSeed(i)}
		c.l1i = cache.New("L1I", cfg.L1I, replacement.NewLRU(), m.l2c, &ten.L1I)
		c.l1d = cache.New("L1D", cfg.L1D, replacement.NewLRU(), m.l2c, &ten.L1D)
		c.l1d.SetWriteback(m.mem.Writeback)
		if cfg.L1DNextLine {
			c.l1d.SetPrefetcher(prefetch.NewNextLine())
		}
		c.itlb = tlb.New("ITLB", cfg.ITLB.Sets, cfg.ITLB.Ways, tlb.NewLRU())
		c.dtlb = tlb.New("DTLB", cfg.DTLB.Sets, cfg.DTLB.Ways, tlb.NewLRU())
		if cfg.BranchPredictor == "perceptron" {
			c.perceptron = branch.NewPerceptron()
		}
		m.cores[i] = c
	}
	return m, nil
}

// bpSeed derives core i's branch-predictor RNG seed. Core 0 keeps the
// historical seed so single-core runs stay bit-identical; later cores
// decorrelate via golden-ratio stepping (never zero for i <= MaxCores,
// which xorshift requires).
func bpSeed(i int) uint64 {
	return 0xabcdef12345 + uint64(i)*0x9e3779b97f4a7c15
}

// Cores reports the machine's configured core count.
func (m *Machine) Cores() int { return len(m.cores) }

// Config returns the machine's configuration.
func (m *Machine) Config() config.SystemConfig { return m.cfg }

// Controller returns the adaptive xPTP controller, if any.
func (m *Machine) Controller() *core.Controller { return m.ctrl }

// predictBranch returns true when the branch predictor is correct,
// approximating the hashed-perceptron predictor with its measured
// accuracy.
//
//itp:hotpath
func (m *Machine) predictBranch(c *coreState) bool {
	c.bpRNG ^= c.bpRNG << 13
	c.bpRNG ^= c.bpRNG >> 7
	c.bpRNG ^= c.bpRNG << 17
	return float64(c.bpRNG>>11)/float64(1<<53) < m.cfg.BranchPredAccuracy
}

// translate resolves va through the TLB hierarchy. It returns the
// physical address, the cycle at which the translation is available, and
// whether the STLB missed (the T-DRRIP demand bit). First-level TLB hits
// are free (VIPT lookup overlaps the cache index).
//
//itp:hotpath
func (m *Machine) translate(c *coreState, now uint64, va arch.Addr, class arch.Class, pc arch.Addr, thread uint8) (arch.Addr, uint64, bool) {
	// ten is the per-tenant stats view; TLB traffic is attributed here,
	// at the one site that knows the requesting thread, and the
	// aggregates are recomputed as tenant sums at run end.
	ten := &m.Stats.Cores[thread]
	first := c.dtlb
	firstStats := &ten.DTLB
	bucket := stats.BData
	if class == arch.InstrClass {
		first = c.itlb
		firstStats = &ten.ITLB
		bucket = stats.BInstr
	}

	if ppn, bits, hit := first.Lookup(va, pc, class, thread); hit {
		firstStats.Record(bucket, true)
		return physFrom(ppn, bits, va), now, false
	}
	firstStats.Record(bucket, false)

	// STLB access.
	stlbDone := now + m.cfg.STLB.Latency
	if ppn, bits, hit := m.stlb.Lookup(va, pc, class, thread); hit {
		ten.STLB.Record(bucket, true)
		first.Insert(va, ppn, bits, class, pc, thread)
		return physFrom(ppn, bits, va), stlbDone, false
	}
	ten.STLB.Record(bucket, false)
	if m.ctrl != nil {
		m.ctrl.OnSTLBMiss()
	}

	// STLB MSHR: a walk already in flight for this page absorbs the
	// miss — the requester waits for that walk instead of starting a new
	// one (Figure 7's MSHR with its Type bit).
	vpn := uint64(va >> arch.PageBits4K)
	for i := range m.stlbMSHRs {
		e := &m.stlbMSHRs[i]
		if e.valid && e.vpn == vpn && e.thread == thread && e.readyAt > stlbDone {
			ten.STLB.RecordMissLatency(e.readyAt - now)
			return physFrom(e.ppn, e.bits, va), e.readyAt, true
		}
	}
	// Allocate an MSHR entry; if all are busy the walk waits for the
	// earliest to complete.
	var entry *stlbMSHREntry
	start := stlbDone
	earliest := ^uint64(0)
	for i := range m.stlbMSHRs {
		e := &m.stlbMSHRs[i]
		if !e.valid || e.readyAt <= stlbDone {
			entry = e
			earliest = stlbDone
			break
		}
		if e.readyAt < earliest {
			entry, earliest = e, e.readyAt
		}
	}
	if earliest > start {
		start = earliest
	}

	// Page walk.
	tr := m.pts[thread].Translate(va)
	done, _ := m.walker.Walk(start, va, &tr, class, pc, thread)
	*entry = stlbMSHREntry{
		vpn: vpn, thread: thread, class: class, valid: true,
		readyAt: done, ppn: tr.PPN, bits: tr.PageBits,
	}
	ten.STLB.RecordMissLatency(done - now)
	m.stlb.Insert(va, tr.PPN, tr.PageBits, class, pc, thread)
	first.Insert(va, tr.PPN, tr.PageBits, class, pc, thread)

	// Future-work extension (Section 7): sequential instruction
	// translation prefetch. The walk for the next code page proceeds off
	// the critical path; iTP's insertion policy prioritises the
	// prefetched entry like any other instruction translation.
	if m.cfg.STLBPrefetch && class == arch.InstrClass && tr.PageBits == arch.PageBits4K {
		nextVA := (va + arch.PageSize4K) &^ (arch.PageSize4K - 1)
		if _, _, hit := m.stlb.Lookup(nextVA, pc, class, thread); !hit {
			ptr := m.pts[thread].Translate(nextVA)
			m.walker.Walk(done, nextVA, &ptr, class, pc, thread)
			m.stlb.Insert(nextVA, ptr.PPN, ptr.PageBits, class, pc, thread)
			m.Stats.STLBPrefetches++
		}
	}
	return tr.PhysAddr(va), done, true
}

//itp:hotpath
func physFrom(ppn uint64, bits uint8, va arch.Addr) arch.Addr {
	mask := (arch.Addr(1) << bits) - 1
	return arch.Addr(ppn)<<bits | (va & mask)
}

// debugIfetchPenalty inflates instruction-translation latency (test hook).
var debugIfetchPenalty uint64 = 1

// ifetch performs the translation + L1I access for one instruction block
// and charges instruction-translation stall cycles (the Figure 1 metric).
//
//itp:hotpath
func (m *Machine) ifetch(c *coreState, now uint64, pc arch.Addr, thread uint8) uint64 {
	pa, tdone, stlbMiss := m.translate(c, now, pc, arch.InstrClass, pc, thread)
	if debugIfetchPenalty > 1 {
		tdone = now + (tdone-now)*debugIfetchPenalty
	}
	m.Stats.Cores[thread].InstrTransCycles += arch.Cycle(tdone - now)
	acc := &m.acc
	*acc = arch.Access{Addr: pa, PC: pc, Kind: arch.IFetch, STLBMiss: stlbMiss, Thread: thread}
	return c.l1i.Access(tdone, acc)
}

// dataAccess performs translation + L1D access for a load or store.
//
//itp:hotpath
func (m *Machine) dataAccess(c *coreState, now uint64, va, pc arch.Addr, isStore bool, thread uint8) uint64 {
	pa, tdone, stlbMiss := m.translate(c, now, va, arch.DataClass, pc, thread)
	m.Stats.Cores[thread].DataTransCycles += arch.Cycle(tdone - now)
	kind := arch.Load
	if isStore {
		kind = arch.Store
	}
	acc := &m.acc
	*acc = arch.Access{Addr: pa, PC: pc, Kind: kind, STLBMiss: stlbMiss, Thread: thread}
	return c.l1d.Access(tdone, acc)
}

// fdipPrefetch probes the ITLB for the block's translation and, when it
// is present, prefetches the block into the L1I — the decoupled
// front-end runs ahead of fetch but cannot run past an unknown
// translation, which is exactly why instruction STLB misses hurt.
//
//itp:hotpath
func (m *Machine) fdipPrefetch(c *coreState, now uint64, pc arch.Addr, thread uint8) bool {
	ppn, bits, _, ok := c.itlb.Peek(pc, thread)
	if !ok {
		return false
	}
	pa := physFrom(ppn, bits, pc)
	if c.l1i.Contains(pa, thread) {
		return true
	}
	acc := &m.acc
	*acc = arch.Access{Addr: pa, PC: pc, Kind: arch.Prefetch, Thread: thread}
	c.l1i.Access(now, acc)
	return true
}

// RunResult summarises one simulation.
type RunResult struct {
	Stats *stats.Sim
	IPC   float64
}

// ErrInterrupted is returned (wrapped) when a run was stopped early via
// Interrupt — e.g. by a supervising harness whose watchdog or deadline
// fired. The RunResult still carries the statistics collected so far.
var ErrInterrupted = errors.New("sim: run interrupted")

// errStream is implemented by streams that can end abnormally
// (trace.Reader, the fault-injection wrappers); a non-nil Err after the
// run surfaces as a run error instead of a silently truncated simulation.
type errStream interface{ Err() error }

// Run simulates instrPerThread instructions on each stream (one per
// core; the single-core machine also accepts two SMT streams) and
// returns the collected statistics.
func (m *Machine) Run(streams []workload.Stream, instrPerThread uint64) (RunResult, error) {
	return m.RunWarmup(streams, 0, instrPerThread)
}

// RunWarmup simulates warmup instructions per thread to warm the caches,
// TLBs, and page tables, resets the statistics, then measures over the
// next measure instructions per thread — the paper's 50M-warmup /
// 100M-measure methodology at configurable scale.
//
// It returns an error (alongside the partial statistics) when the stream
// count is invalid, when the run is interrupted, or when a stream reports
// a terminal ingestion error.
func (m *Machine) RunWarmup(streams []workload.Stream, warmup, measure uint64) (RunResult, error) {
	nCores := len(m.cores)
	if nCores > 1 {
		if len(streams) != nCores {
			return RunResult{}, fmt.Errorf("sim: Run needs exactly one stream per core (%d cores configured), got %d streams", nCores, len(streams))
		}
	} else if len(streams) == 0 || len(streams) > 2 {
		return RunResult{}, fmt.Errorf("sim: Run needs 1 or 2 streams on a 1-core machine (2 = SMT), got %d streams", len(streams))
	}
	m.interrupted.Store(false)
	m.auditErr = nil
	threads := make([]*threadCtx, len(streams))
	for i := range streams {
		c := m.cores[0]
		if nCores > 1 {
			c = m.cores[i]
		}
		threads[i] = newThreadCtx(c, uint8(i), streams[i], &m.cfg, 1, warmup+measure, m.funcClock)
		c.threads = append(c.threads, threads[i])
	}

	m.threads = threads
	defer func() {
		m.threads = nil
		for _, c := range m.cores {
			c.threads = nil
		}
	}()
	m.publishDiag()

	// setFetchSteps grants each thread its share of its core's fetch
	// bandwidth: under SMT fetch alternates the core's *live* threads
	// every cycle, so when one drains (done, or past this phase's
	// boundary) the survivor gets the full width back instead of keeping
	// fetchStep=2 against a dead peer. Single-thread cores always run at
	// full bandwidth and are skipped.
	setFetchSteps := func(until uint64) {
		for _, c := range m.cores {
			if len(c.threads) < 2 {
				continue
			}
			live := uint64(0)
			for _, th := range c.threads {
				if !th.done && th.retired < until {
					live++
				}
			}
			if live == 0 {
				live = 1
			}
			for _, th := range c.threads {
				th.fetchStep = live
			}
		}
	}

	run := func(until uint64) {
		setFetchSteps(until)
		// Single-thread fast path: no per-step thread selection scan.
		if len(threads) == 1 {
			t := threads[0]
			for !t.done && t.retired < until {
				if m.interrupted.Load() {
					return
				}
				m.step(t)
			}
			return
		}
		for {
			if m.interrupted.Load() {
				return
			}
			// Advance the thread that is earliest in simulated time to
			// keep shared-structure state approximately time-ordered.
			var t *threadCtx
			for _, th := range threads {
				if th.done || th.retired >= until {
					continue
				}
				if t == nil || th.fetchCycle < t.fetchCycle {
					t = th
				}
			}
			if t == nil {
				return
			}
			m.step(t)
			if t.done || t.retired >= until {
				// t left the live set: re-split its core's bandwidth.
				setFetchSteps(until)
			}
		}
	}

	// The cycle baseline starts at the functional clock (0 on machines
	// that never warmed functionally) so a measure-only run after
	// WarmFunctional does not bill the functional cycles as measured.
	baseline := m.funcClock
	if warmup > 0 {
		run(warmup)
		// Reset the measurement state, keeping all microarchitectural
		// state warm.
		m.resetMeasured()
		for _, th := range threads {
			th.retiredAtReset = th.retired
			th.lastRetireAtReset = th.lastRetire
			if th.lastRetire > baseline {
				baseline = th.lastRetire
			}
		}
	}
	run(warmup + measure)
	m.retiredTotal.Store(m.retiredLocal) // exact progress at run end

	var last uint64
	for _, th := range threads {
		m.Stats.Instructions[th.id] = th.retired - th.retiredAtReset
		ten := &m.Stats.Cores[th.id]
		ten.Instructions = th.retired - th.retiredAtReset
		ten.Cycles = arch.Cycle(th.lastRetire - th.lastRetireAtReset)
		if th.lastRetire > last {
			last = th.lastRetire
		}
	}
	m.Stats.Cycles = arch.Cycle(last - baseline)
	m.Stats.AggregateTenants()
	if m.ctrl != nil {
		m.Stats.XPTPEnabledWindows = m.ctrl.EnabledWindows
		m.Stats.XPTPDisabledWindows = m.ctrl.DisabledWindows
	}
	m.publishDiag()
	res := RunResult{Stats: m.Stats, IPC: m.Stats.IPC()}

	var errs []error
	switch {
	case m.auditErr != nil:
		// An audit violation interrupted the run from inside; surface the
		// structured verdict, not the generic interrupt.
		errs = append(errs, m.auditErr)
	case m.interrupted.Load():
		errs = append(errs, ErrInterrupted)
	}
	for i, s := range streams {
		if es, ok := s.(errStream); ok {
			if err := es.Err(); err != nil {
				errs = append(errs, fmt.Errorf("sim: stream %d: %w", i, err))
			}
		}
	}
	return res, errors.Join(errs...)
}

// Interrupt asks a running simulation to stop at the next instruction
// boundary. Safe to call from any goroutine; the interrupted RunWarmup
// returns ErrInterrupted together with the statistics collected so far.
func (m *Machine) Interrupt() { m.interrupted.Store(true) }

// Progress returns the machine-wide retired-instruction count, updated
// continuously while a run is in flight. It is the forward-progress
// counter a supervisor's watchdog samples: a machine that stops retiring
// (e.g. its trace source hung) stops advancing this counter.
func (m *Machine) Progress() uint64 { return m.retiredTotal.Load() }

// diagPublishMask throttles snapshot publication to every 64K retires.
const diagPublishMask = 1<<16 - 1

// publishDiag formats a diagnostic snapshot of the machine's occupancy
// state and publishes it for Snapshot readers. It must only be called
// from the simulation goroutine: it reads cache/TLB internals directly,
// and the atomic pointer store is what makes the result safe to read
// from a supervisor thread.
func (m *Machine) publishDiag() {
	m.retiredTotal.Store(m.retiredLocal)
	var b strings.Builder
	fmt.Fprintf(&b, "retired=%d", m.retiredLocal)
	for _, th := range m.threads {
		fmt.Fprintf(&b, " t%d{retired=%d fetchCycle=%d lastRetire=%d done=%v}",
			th.id, th.retired, th.fetchCycle, th.lastRetire, th.done)
	}
	mshrs := 0
	for i := range m.stlbMSHRs {
		if m.stlbMSHRs[i].valid {
			mshrs++
		}
	}
	fmt.Fprintf(&b, " stlb-mshrs=%d/%d", mshrs, len(m.stlbMSHRs))
	si, sd := m.STLBOccupancy()
	fmt.Fprintf(&b, " stlb-occ{instr=%d data=%d}", si, sd)
	blocks, pte, dataPTE := m.L2COccupancy()
	fmt.Fprintf(&b, " l2c-occ{blocks=%d pte=%d data-pte=%d}", blocks, pte, dataPTE)
	fmt.Fprintf(&b, " dispatch-bound{front=%d back=%d}", m.frontBound, m.backBound)
	s := b.String()
	m.diag.Store(&s)
}

// Snapshot returns the most recently published diagnostic snapshot —
// MSHR, STLB, and L2C occupancy plus per-thread pipeline state — together
// with the live progress counter. It is safe to call from any goroutine
// while a run is in flight (the harness watchdog calls it when it decides
// to kill a stalled run); the occupancy part may be up to 64K retired
// instructions stale.
func (m *Machine) Snapshot() string {
	snap := "no snapshot published yet"
	if p := m.diag.Load(); p != nil {
		snap = *p
	}
	s := fmt.Sprintf("progress=%d %s", m.retiredTotal.Load(), snap)
	// Append recent window history when the metrics layer is attached so
	// a stall dump shows the phase the machine was in, not just its
	// terminal occupancy state. (m.met is set before Run starts and the
	// sampler is internally synchronised, so this is race-free.)
	if m.met != nil {
		s += " recent-windows: " + m.met.windows.RecentString(5)
	}
	if p := m.auditVerdict.Load(); p != nil {
		s += " " + *p
	}
	return s
}

// SetDebugIfetchPenalty scales instruction-translation latency (test hook).
func SetDebugIfetchPenalty(x uint64) { debugIfetchPenalty = x }

// STLBPolicyName reports the STLB replacement policy in use (debug aid).
func (m *Machine) STLBPolicyName() string {
	if t, ok := m.stlb.(*tlb.TLB); ok {
		return t.Policy().Name()
	}
	return "split"
}

// STLBOccupancy reports valid STLB entries by class (debug aid).
func (m *Machine) STLBOccupancy() (instr, data int) {
	if t, ok := m.stlb.(*tlb.TLB); ok {
		return t.Occupancy()
	}
	return 0, 0
}

// L2COccupancy reports L2C blocks: total valid, PTE, data-PTE (debug aid).
func (m *Machine) L2COccupancy() (blocks, pte, dataPTE int) {
	return m.l2c.Occupancy()
}
