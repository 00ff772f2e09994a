package sim

import (
	"math"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/workload"
)

// steadyStep returns a setup that builds a machine plus a warmed thread
// context stepping the reference workload, so each step call runs exactly
// one steady-state instruction. Warm steps populate caches, TLBs, page
// tables, and the allocator-visible buffers (lookahead ring, metrics
// window ring), leaving the measured loop with the structures the run
// loop actually touches per instruction. mutate (optional) edits the
// default configuration before the machine is built, so each case
// exercises its own policy mix.
func steadyStep(instrument, beacons bool, mutate func(*config.SystemConfig)) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		tb.Helper()
		spec, err := workload.NewCatalog(4, 2).Get("srv_000")
		if err != nil {
			tb.Fatal(err)
		}
		cfg := config.Default()
		if mutate != nil {
			mutate(&cfg)
		}
		m, err := NewMachine(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		if instrument {
			w := m.InstrumentMetrics(0)
			w.SetRetain(64)
		}
		if beacons {
			m.EnableBeacons(0)
		}
		t := newThreadCtx(m.cores[0], 0, spec.NewStream(), &m.cfg, 1, math.MaxUint64, 0)
		m.threads = []*threadCtx{t}
		m.cores[0].threads = m.threads
		for i := 0; i < 50_000; i++ {
			m.step(t)
		}
		return func() { m.step(t) }
	}
}

// steadyMultiCore builds a 4-core CMP with one warmed thread per core;
// each step call advances the next core round-robin, so every private
// structure and every shared-hierarchy contention path (STLB, L2C, LLC,
// walker MSHRs, DRAM) is exercised.
func steadyMultiCore(tb testing.TB) func() {
	tb.Helper()
	cat := workload.NewCatalog(8, 2)
	cfg := config.Default()
	cfg.Cores = 4
	m, err := NewMachine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	names := cat.ServerNames()
	threads := make([]*threadCtx, cfg.Cores)
	for i := range threads {
		spec, err := cat.Get(names[i%len(names)])
		if err != nil {
			tb.Fatal(err)
		}
		t := newThreadCtx(m.cores[i], uint8(i), spec.NewStream(), &m.cfg, 1, math.MaxUint64, 0)
		m.cores[i].threads = []*threadCtx{t}
		threads[i] = t
	}
	m.threads = threads
	for i := 0; i < 200_000; i++ {
		m.step(threads[i&3])
	}
	i := 0
	return func() {
		m.step(threads[i&3])
		i++
	}
}

// steadyWarmFunctional replays one instruction per step call through
// warmStep (block-change ifetch, data accesses, predictor training,
// controller tick) against warmed state.
func steadyWarmFunctional(tb testing.TB) func() {
	tb.Helper()
	spec, err := workload.NewCatalog(4, 2).Get("srv_000")
	if err != nil {
		tb.Fatal(err)
	}
	m, err := NewMachine(config.Default())
	if err != nil {
		tb.Fatal(err)
	}
	const n = 1 << 16
	buf := make([]workload.Instr, n)
	if got := workload.FillBatch(spec.NewStream(), buf); got != n {
		tb.Fatalf("short fill: %d", got)
	}
	c := m.cores[0]
	for i := range buf {
		m.warmStep(c, &buf[i])
	}
	i := 0
	return func() {
		m.warmStep(c, &buf[i&(n-1)])
		i++
	}
}

// Hot-path package lists: which //itp:hotpath functions each steady-state
// case exercises empirically. itpvet's static hotpathalloc analyzer
// proves the absence of allocation constructs; TestSteadyStateAllocFree
// proves 0 allocs per step on real instruction streams; and
// internal/lint's TestHotpathGateCoverage proves every annotation in the
// tree is claimed by at least one case. Keep the three in sync.
var (
	// hotpathCommon covers the machinery every configuration steps
	// through: the pipeline, the TLB/cache/DRAM hierarchy, the page
	// walker, virtual memory, the LRU substrate, and the workload
	// generators.
	hotpathCommon = []string{
		"itpsim/internal/arch",
		"itpsim/internal/sim",
		"itpsim/internal/tlb",
		"itpsim/internal/cache",
		"itpsim/internal/replacement",
		"itpsim/internal/ptw",
		"itpsim/internal/vm",
		"itpsim/internal/dram",
		"itpsim/internal/stats",
		"itpsim/internal/prefetch",
		"itpsim/internal/workload",
	}
	// hotpathITPXPTP adds the paper's proposal policies: iTP on the STLB
	// and adaptive xPTP (controller included) on the L2C.
	hotpathITPXPTP = []string{
		"itpsim/internal/core",
	}
	// hotpathCHiRP adds the CHiRP baseline plus the real
	// hashed-perceptron predictor that drives its control-flow history.
	hotpathCHiRP = []string{
		"itpsim/internal/branch",
	}
	// hotpathBeacons covers the state-fingerprint fold: the FNV
	// substrate in arch and the whole-hierarchy hashState walk in sim,
	// which the beaconed case drives at every window boundary.
	hotpathBeacons = []string{
		"itpsim/internal/arch",
		"itpsim/internal/sim",
	}
)

// steadyStateCase is one steady-state configuration of the simulation
// hot loop. setup builds and warms a machine and returns a step that
// advances it by one instruction; hotpath names the packages whose
// //itp:hotpath functions that step exercises.
type steadyStateCase struct {
	name    string
	setup   func(testing.TB) func()
	hotpath []string
}

// steadyStateCases drives BenchmarkSteadyState and
// TestSteadyStateAllocFree. internal/lint's TestHotpathGateCoverage
// parses this table syntactically, so keep the fields keyed, name a
// string literal, and hotpath an identifier naming one of the lists
// above.
var steadyStateCases = []steadyStateCase{
	// One instruction end to end: lookahead pop, front end, TLBs, page
	// walks, caches, retire.
	{name: "Step", setup: steadyStep(false, false, nil), hotpath: hotpathCommon},
	// The windowed sampler attached and per-1000-instruction windows
	// closing into a retained ring: window records recycle in place.
	{name: "StepMetrics", setup: steadyStep(true, false, nil), hotpath: hotpathCommon},
	// The paper's proposal: iTP on the STLB and adaptive xPTP (with its
	// controller judging every window) on the L2C, instrumented so the
	// controller's decision hook is live too.
	{name: "StepITPXPTP", setup: steadyStep(true, false, func(cfg *config.SystemConfig) {
		cfg.STLBPolicy = "itp"
		cfg.L2CPolicy = "xptp"
	}), hotpath: hotpathITPXPTP},
	// The CHiRP STLB baseline with the real hashed-perceptron branch
	// predictor: the control-flow-history and perceptron hot paths.
	{name: "StepCHiRP", setup: steadyStep(false, false, func(cfg *config.SystemConfig) {
		cfg.STLBPolicy = "chirp"
		cfg.BranchPredictor = "perceptron"
	}), hotpath: hotpathCHiRP},
	// Metrics windows closing and a full-hierarchy state fingerprint
	// folding into the beacon chain at every window boundary: the fixed
	// ring and in-place FNV fold.
	{name: "StepBeacons", setup: steadyStep(true, true, nil), hotpath: hotpathBeacons},
	// Four cores stepped round-robin into the shared STLB/L2C/LLC/walker/
	// DRAM: per-tenant stats attribution and shared-MSHR contention.
	{name: "StepMultiCore", setup: steadyMultiCore, hotpath: hotpathCommon},
	// Functional warmup replays at generator speed, so its loop must be
	// as allocation-free as the detailed step.
	{name: "WarmFunctional", setup: steadyWarmFunctional, hotpath: hotpathCommon},
}

// TestSteadyStateAllocFree is the allocation gate for the simulation hot
// loop: every steady-state case must step with zero heap allocations
// (AllocsPerRun's per-step average, the same figure as -benchmem's
// allocs/op).
func TestSteadyStateAllocFree(t *testing.T) {
	for _, c := range steadyStateCases {
		t.Run(c.name, func(t *testing.T) {
			step := c.setup(t)
			if n := testing.AllocsPerRun(20_000, step); n != 0 {
				t.Errorf("%v allocs per step, want 0", n)
			}
		})
	}
}

// BenchmarkSteadyState times one steady-state instruction per op for each
// case (`go test -bench SteadyState -benchtime 20000x ./internal/sim`).
func BenchmarkSteadyState(b *testing.B) {
	for _, c := range steadyStateCases {
		b.Run(c.name, func(b *testing.B) {
			step := c.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}
