package sim

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/workload"
)

// steadyStep returns a setup that builds a machine plus a warmed thread
// context stepping workload wl, so each step call runs exactly
// one steady-state instruction. Warm steps populate caches, TLBs, page
// tables, and the allocator-visible buffers (lookahead ring, metrics
// window ring), leaving the measured loop with the structures the run
// loop actually touches per instruction. mutate (optional) edits the
// default configuration before the machine is built, so each case
// exercises its own policy mix; wrap (optional) builds the stream the
// thread steps over wl's generator. A step past the end of that stream
// fails the test.
func steadyStep(wl string, instrument, beacons bool, mutate func(*config.SystemConfig), wrap func(workload.Stream) workload.Stream) func(testing.TB) func() {
	return func(tb testing.TB) func() {
		tb.Helper()
		spec, err := workload.NewCatalog(4, 2).Get(wl)
		if err != nil {
			tb.Fatal(err)
		}
		stream := spec.NewStream()
		if wrap != nil {
			stream = wrap(stream)
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
			m.InstrumentMetrics(0)
		}
		if beacons {
			m.EnableBeacons(0)
		}
		t := newThreadCtx(m.cores[0], 0, stream, &m.cfg, 1, math.MaxUint64, 0)
		m.threads = []*threadCtx{t}
		m.cores[0].threads = m.threads
		for i := 0; i < steadySetupSteps; i++ {
			m.step(t)
		}
		return func() {
			m.step(t)
			if t.done {
				tb.Fatal("the stream ended")
			}
		}
	}
}

// steadySetupSteps is how many steps steadyStep's setup warms a machine
// for.
const steadySetupSteps = 50_000

// limited puts a stream under workload.Limit, with a budget no run of
// the table reaches.
func limited(s workload.Stream) workload.Stream { return workload.Limit(s, 1<<40) }

// recorded replays the first 2^18 instructions of s, more than
// TestSteadyStateAllocFree steps, its setup included.
func recorded(s workload.Stream) workload.Stream {
	buf := make([]workload.Instr, 1<<18)
	return &workload.Replay{Instrs: buf[:workload.FillBatch(s, buf)]}
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

// steadyStateCase is one steady-state configuration of the simulation
// hot loop: setup builds and warms a machine and returns a step that
// advances it by one instruction.
type steadyStateCase struct {
	name  string
	setup func(testing.TB) func()
}

// steadyStateCases drives BenchmarkSteadyState and
// TestSteadyStateAllocFree.
var steadyStateCases = []steadyStateCase{
	// One instruction end to end: lookahead pop, front end, TLBs, page
	// walks, caches, retire.
	{name: "Step", setup: steadyStep("srv_000", false, false, nil, nil)},
	// The windowed sampler attached and per-1000-instruction windows
	// closing into a retained ring: window records recycle in place.
	{name: "StepMetrics", setup: steadyStep("srv_000", true, false, nil, nil)},
	// The paper's proposal: iTP on the STLB and adaptive xPTP (with its
	// controller judging every window) on the L2C, instrumented so the
	// controller's decision hook is live too.
	{name: "StepITPXPTP", setup: steadyStep("srv_000", true, false, func(cfg *config.SystemConfig) {
		cfg.STLBPolicy = "itp"
		cfg.L2CPolicy = "xptp"
	}, nil)},
	// The RRIP family and SHiP: T-DRRIP's aging victim search and
	// STLB-miss bias at the L2C, SHiP's signature table at the LLC.
	{name: "StepRRIP", setup: steadyStep("srv_000", false, false, func(cfg *config.SystemConfig) {
		cfg.L2CPolicy = "tdrrip"
		cfg.LLCPolicy = "ship"
	}, nil)},
	// Mockingjay at the LLC: the sampled reuse-distance predictor with
	// its FIFO ring, and the ETA-based victim search.
	{name: "StepMockingjay", setup: steadyStep("srv_000", false, false, func(cfg *config.SystemConfig) {
		cfg.LLCPolicy = "mockingjay"
	}, nil)},
	// Hawkeye at the LLC: the OPTgen occupancy vectors and history, and
	// the PC predictor that classifies each fill.
	{name: "StepHawkeye", setup: steadyStep("srv_000", false, false, func(cfg *config.SystemConfig) {
		cfg.LLCPolicy = "hawkeye"
	}, nil)},
	// The CHiRP STLB baseline with the real hashed-perceptron branch
	// predictor: the control-flow-history and perceptron hot paths.
	{name: "StepCHiRP", setup: steadyStep("srv_000", false, false, func(cfg *config.SystemConfig) {
		cfg.STLBPolicy = "chirp"
		cfg.BranchPredictor = "perceptron"
	}, nil)},
	// The probabilistic-LRU STLB of the paper's Figure 3: its random
	// draw and per-class victim search.
	{name: "StepProbLRU", setup: steadyStep("srv_000", false, false, func(cfg *config.SystemConfig) {
		cfg.STLBPolicy = "problru"
	}, nil)},
	// Half the footprint on 2 MB pages: the huge-page translation paths
	// of the TLBs and the page table.
	{name: "StepHugePages", setup: steadyStep("srv_000", false, false, func(cfg *config.SystemConfig) {
		cfg.HugePageFraction = 0.5
	}, nil)},
	// The SPEC-like loop-nest generator, which the other cases' server
	// stream never runs.
	{name: "StepSpec", setup: steadyStep("spec_000", false, false, nil, nil)},
	// The server stream under workload.Limit, the wrapper examples and
	// the trace writer use: its batch path over the generator's.
	{name: "StepLimit", setup: steadyStep("srv_000", false, false, nil, limited)},
	// A recorded workload.Replay, the in-memory trace: batches copied out
	// of the recording.
	{name: "StepReplay", setup: steadyStep("srv_000", false, false, nil, recorded)},
	// Metrics windows closing and a full-hierarchy state fingerprint
	// folding into the beacon chain at every window boundary: the fixed
	// ring and in-place FNV fold.
	{name: "StepBeacons", setup: steadyStep("srv_000", true, true, nil, nil)},
	// Four cores stepped round-robin into the shared STLB/L2C/LLC/walker/
	// DRAM: per-tenant stats attribution and shared-MSHR contention.
	{name: "StepMultiCore", setup: steadyMultiCore},
	// Functional warmup replays at generator speed, so its loop must be
	// as allocation-free as the detailed step.
	{name: "WarmFunctional", setup: steadyWarmFunctional},
}

const (
	// steadyWarmSteps is how many steps TestSteadyStateAllocFree runs
	// after a case's setup before it counts: enough that every window
	// ring and first-touch table the setup left short is full.
	steadyWarmSteps = 20_000
	// steadyCountSteps is how many steps it counts, 2^17, so two of
	// the 64K-retire diagnostic publishes fall in the span.
	steadyCountSteps = 1 << 17
	// frameMapGrowthBound is the most allocations the span may make
	// under vm.(*PageTable).mapFrame: a page table's node directories,
	// nodes and chunk arenas growing as a stream touches pages for the
	// first time. It is one-off growth, not per-step allocation; the
	// bound is twice the largest count a case reads (8, StepMultiCore).
	frameMapGrowthBound = 16
)

// Frames that attribute a profiled allocation: the two step functions
// the cases drive, and the page-table insert whose growth the gate
// bounds apart.
const (
	stepFrame     = "itpsim/internal/sim.(*Machine).step"
	warmStepFrame = "itpsim/internal/sim.(*Machine).warmStep"
	mapFrameFrame = "itpsim/internal/vm.(*PageTable).mapFrame"
)

// TestSteadyStateAllocFree is the allocation gate for the simulation hot
// loop. After each case's setup it runs steadyWarmSteps steps, then
// counts every heap allocation of steadyCountSteps more. With
// runtime.MemProfileRate at 1 the memory profile records each
// allocation with its stack, so the gate counts exactly the allocations
// made through (*Machine).step or warmStep, whatever else the process
// (the race runtime, the test framework, the collector) allocates
// meanwhile. It allows none, except page-table growth under
// vm.(*PageTable).mapFrame, held under frameMapGrowthBound.
//
// The profile misses one kind of allocation: a pointer-free object
// under 16 bytes that the runtime packs into its current tiny block
// (the race detector turns that packing off). The runtime counts those
// for the whole process, so the gate also allows no tiny allocation in
// the counted span, from anywhere.
func TestSteadyStateAllocFree(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	for _, c := range steadyStateCases {
		t.Run(c.name, func(t *testing.T) {
			step := c.setup(t)
			runtime.MemProfileRate = 1
			for range steadyWarmSteps {
				step()
			}
			before := profiledAllocs()
			tinyBefore := tinyAllocs()
			for range steadyCountSteps {
				step()
			}
			after := profiledAllocs()
			if tiny := tinyAllocs() - tinyBefore; tiny != 0 {
				t.Errorf("%d tiny allocations over %d steps: pointer-free objects under 16 bytes that the memory profile does not record", tiny, steadyCountSteps)
			}
			var growth int64
			steady := map[string]int64{}
			for stack, n := range after {
				if n -= before[stack]; n == 0 {
					continue
				}
				funcs := stackFuncs(stack)
				// A stack the profile cut at its 32 frames may have
				// lost the step frame, so it counts as the step's.
				truncated := stack[len(stack)-1] != 0
				switch {
				case !truncated && !slices.Contains(funcs, stepFrame) && !slices.Contains(funcs, warmStepFrame):
				case slices.Contains(funcs, mapFrameFrame):
					growth += n
				default:
					steady[strings.Join(funcs, " < ")] += n
				}
			}
			for at, n := range steady {
				t.Errorf("%d allocations on the step path at %s", n, at)
			}
			t.Logf("%d page-table growth allocations over %d steps", growth, steadyCountSteps)
			if growth > frameMapGrowthBound {
				t.Errorf("%d page-table growth allocations over %d steps, bound %d", growth, steadyCountSteps, frameMapGrowthBound)
			}
		})
	}
}

// profiledAllocs returns the memory profile's allocation count per
// stack, after a collection that publishes every allocation made so
// far.
func profiledAllocs() map[[32]uintptr]int64 {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	allocs := make(map[[32]uintptr]int64, n)
	for _, r := range recs[:n] {
		allocs[r.Stack0] += r.AllocObjects
	}
	return allocs
}

// tinyAllocs returns how many tiny allocations the process has made, as
// of the last collection: each processor's count joins the total when
// its allocation cache is flushed, which every collection does. Read
// after profiledAllocs, it covers every allocation made before that
// call.
func tinyAllocs() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}

// stackFuncs returns the function names of a profiled stack, innermost
// first.
func stackFuncs(stack [32]uintptr) []string {
	var funcs []string
	r := runtime.MemProfileRecord{Stack0: stack}
	frames := runtime.CallersFrames(r.Stack())
	for {
		f, more := frames.Next()
		funcs = append(funcs, f.Function)
		if !more {
			return funcs
		}
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
