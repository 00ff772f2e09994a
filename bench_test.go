package itpsim

// Benchmark targets regenerating the paper's tables and figures (one per
// experiment, per DESIGN.md's index) plus ablation benches for the design
// parameters and whole-run throughput benches. Figure benches run
// the corresponding experiment at a reduced scale and report the headline
// number as a custom metric; use cmd/itpbench for full-scale runs.

import (
	"runtime"
	"strconv"
	"testing"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/experiments"
	"itpsim/internal/harness"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
	"itpsim/internal/sim"
	"itpsim/internal/workload"
)

// benchOptions is the reduced scale used by the figure benches.
func benchOptions() experiments.Options {
	return experiments.Options{
		ServerWorkloads:     2,
		SpecWorkloads:       2,
		SMTPairsPerCategory: 1,
		Warmup:              100_000,
		Measure:             200_000,
	}
}

// runFigure executes one experiment per iteration and reports the mean of
// its row values as "value".
func runFigure(b *testing.B, id string) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		sum := 0.0
		for _, r := range res.Rows {
			sum += r.Value
		}
		if len(res.Rows) > 0 {
			last = sum / float64(len(res.Rows))
		}
	}
	b.ReportMetric(last, "mean-value")
}

func BenchmarkFig1ITLBSweep(b *testing.B)        { runFigure(b, "fig1") }
func BenchmarkFig2InstrMPKI(b *testing.B)        { runFigure(b, "fig2") }
func BenchmarkFig3ProbLRU(b *testing.B)          { runFigure(b, "fig3") }
func BenchmarkFig4MPKIBreakdown(b *testing.B)    { runFigure(b, "fig4") }
func BenchmarkFig8Single(b *testing.B)           { runFigure(b, "fig8a") }
func BenchmarkFig8SMT(b *testing.B)              { runFigure(b, "fig8b") }
func BenchmarkFig9MissProfile(b *testing.B)      { runFigure(b, "fig9") }
func BenchmarkFig10STLBBreakdown(b *testing.B)   { runFigure(b, "fig10") }
func BenchmarkFig11LLCPolicies(b *testing.B)     { runFigure(b, "fig11") }
func BenchmarkFig12ITLBSensitivity(b *testing.B) { runFigure(b, "fig12") }
func BenchmarkFig13HugePages(b *testing.B)       { runFigure(b, "fig13") }
func BenchmarkFig14SplitSTLB(b *testing.B)       { runFigure(b, "fig14") }
func BenchmarkExt1Extensions(b *testing.B)       { runFigure(b, "ext1") }

// benchIPC runs one workload under one config and returns IPC.
func benchIPC(b *testing.B, cfg config.SystemConfig, name string) float64 {
	b.Helper()
	cat := workload.NewCatalog(8, 2)
	spec, err := cat.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.NewMachine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := workload.Prefetch(spec.NewStream())
	defer p.Close()
	res, err := m.RunWarmup([]workload.Stream{p}, 100_000, 200_000)
	if err != nil {
		b.Fatal(err)
	}
	return res.IPC
}

// Ablation benches sweep the design parameters DESIGN.md calls out.

func BenchmarkAblationITPParamN(b *testing.B) {
	for _, n := range []int{1, 2, 4, 6} {
		b.Run("N="+itoa(n), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.STLBPolicy = "itp"
				cfg.ITP.N = n
				cfg.ITP.M = n + 4
				ipc = benchIPC(b, cfg, "srv_000")
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

func BenchmarkAblationXPTPK(b *testing.B) {
	for _, k := range []int{2, 4, 6, 8} {
		b.Run("K="+itoa(k), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.STLBPolicy = "itp"
				cfg.L2CPolicy = "xptp"
				cfg.XPTP.K = k
				ipc = benchIPC(b, cfg, "srv_007")
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

func BenchmarkAblationAdaptiveT1(b *testing.B) {
	for _, t1 := range []int{0, 4, 8, 32} {
		b.Run("T1="+itoa(t1), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.STLBPolicy = "itp"
				cfg.L2CPolicy = "xptp"
				cfg.XPTP.T1 = t1
				ipc = benchIPC(b, cfg, "srv_007")
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

func BenchmarkAblationFreqBits(b *testing.B) {
	for _, bits := range []int{1, 2, 3, 4} {
		b.Run("bits="+itoa(bits), func(b *testing.B) {
			var ipc float64
			for i := 0; i < b.N; i++ {
				cfg := config.Default()
				cfg.STLBPolicy = "itp"
				cfg.ITP.FreqBits = bits
				ipc = benchIPC(b, cfg, "srv_000")
			}
			b.ReportMetric(ipc, "ipc")
		})
	}
}

// Whole-run throughput.

func BenchmarkSimulatorThroughput(b *testing.B) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _ := sim.NewMachine(config.Default())
		p := workload.Prefetch(spec.NewStream())
		m.Run([]workload.Stream{p}, 100_000)
		p.Close()
	}
	b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds(), "instr/s")
}

// simRunSeconds times one fresh 60k-instruction run, instrumented or not.
func simRunSeconds(b testing.TB, instrument bool, spec workload.Spec) float64 {
	m, err := sim.NewMachine(config.Default())
	if err != nil {
		b.Fatal(err)
	}
	if instrument {
		m.InstrumentMetrics(0)
	}
	p := workload.Prefetch(spec.NewStream())
	defer p.Close()
	start := time.Now()
	if _, err := m.Run([]workload.Stream{p}, 60_000); err != nil {
		b.Fatal(err)
	}
	return time.Since(start).Seconds()
}

// TestInstrumentationOverheadBudget enforces the observability design
// budget: a fully instrumented simulation must run within 5% of the
// uninstrumented baseline. Timings interleave baseline/instrumented pairs and take the
// minimum of several runs to damp scheduler noise; the test retries
// before declaring a regression so CI jitter cannot fail the build while
// a real hot-path regression still does.
func TestInstrumentationOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the timing budget")
	}
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	// Warm both paths once (page-cache, JIT-ish first-touch effects).
	simRunSeconds(t, false, spec)
	simRunSeconds(t, true, spec)

	const budget = 1.05
	var lastRatio float64
	for attempt := 0; attempt < 5; attempt++ {
		base, inst := 1e9, 1e9
		for rep := 0; rep < 4; rep++ {
			if v := simRunSeconds(t, false, spec); v < base {
				base = v
			}
			if v := simRunSeconds(t, true, spec); v < inst {
				inst = v
			}
		}
		lastRatio = inst / base
		if lastRatio <= budget {
			return
		}
	}
	t.Fatalf("instrumented run is %.1f%% slower than baseline across 5 attempts (budget 5%%)",
		100*(lastRatio-1))
}

// Sharded-run benchmarks: the same 2M-instruction logical run timed
// serially and as an 8-shard parallel plan. Warmup is 100k per shard, so
// the ideal wall-clock speedup is (W+N)/(W+N/K) ≈ 6×. BenchmarkShardedRun
// reports the measured speedup as a custom metric only when the host has
// enough cores to run all shards concurrently (GOMAXPROCS >= 8).
const (
	shardBenchShards  = 8
	shardBenchWarmup  = 100_000
	shardBenchMeasure = 2_000_000
)

// shardBenchSource returns the workload both run shapes time.
func shardBenchSource(b *testing.B) shard.Source {
	b.Helper()
	spec, err := workload.NewCatalog(8, 2).Get("srv_000")
	if err != nil {
		b.Fatal(err)
	}
	return shard.Source{Name: "srv_000", New: spec.NewStream}
}

// serialRunSeconds times the serial reference run once.
func serialRunSeconds(b *testing.B, src shard.Source) float64 {
	b.Helper()
	m, err := sim.NewMachine(config.Default())
	if err != nil {
		b.Fatal(err)
	}
	p := workload.Prefetch(src.New())
	defer p.Close()
	start := time.Now()
	if _, err := m.RunWarmup([]workload.Stream{p}, shardBenchWarmup, shardBenchMeasure); err != nil {
		b.Fatal(err)
	}
	return time.Since(start).Seconds()
}

func BenchmarkSerialRun(b *testing.B) {
	src := shardBenchSource(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serialRunSeconds(b, src)
	}
	b.ReportMetric(float64(shardBenchMeasure)*float64(b.N)/b.Elapsed().Seconds(), "instr/s")
}

func BenchmarkShardedRun(b *testing.B) {
	src := shardBenchSource(b)
	ix := shard.NewIndex()
	cfg := shard.Config{System: config.Default()}
	plan := shard.Plan{Shards: shardBenchShards, Warmup: shardBenchWarmup, Measure: shardBenchMeasure}
	run := func() {
		if _, err := shard.Run(cfg, plan, "bench", src, ix, harness.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	// Warm the split index outside the timed region: a policy sweep pays
	// the positioning pass once per workload, and that steady state is
	// what this benchmark regresses.
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	shardedSec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(shardBenchMeasure)/shardedSec, "instr/s")
	if runtime.GOMAXPROCS(0) >= shardBenchShards {
		b.ReportMetric(serialRunSeconds(b, src)/shardedSec, "speedup")
	}
}

// BenchmarkSampledRun times the same 2M-instruction logical run as a
// phase-sampled plan: 8 representatives of 50k instructions each, with a
// 50k functional + 50k detailed warmup, running in parallel. Against the
// serial run's 2.1M detailed instructions the sampled run simulates only
// 400k detailed + 400k functional spread over 8 cores, so the ideal
// speedup is well above 10×. The LRU-baseline profiling pre-pass is
// warmed outside the timed region: a policy sweep pays it once per
// workload (that amortisation is the sampling speedup story), and the
// steady state is what this benchmark regresses. Like
// BenchmarkShardedRun, the speedup metric is only reported on hosts with
// enough cores (GOMAXPROCS >= 8).
func BenchmarkSampledRun(b *testing.B) {
	src := shardBenchSource(b)
	ix := shard.NewIndex()
	profiles := sample.NewProfiles()
	cfg := sample.Config{
		System:       config.Default(),
		Phases:       shardBenchShards,
		Window:       50_000,
		Warmup:       shardBenchWarmup,
		DetailWarmup: 50_000,
		Measure:      shardBenchMeasure,
	}
	run := func() {
		if _, err := sample.Run(cfg, "bench", src, ix, profiles, harness.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.StopTimer()
	sampledSec := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(shardBenchMeasure)/sampledSec, "instr/s")
	if runtime.GOMAXPROCS(0) >= shardBenchShards {
		b.ReportMetric(serialRunSeconds(b, src)/sampledSec, "speedup")
	}
}

// BenchmarkMultiCoreRun times a whole 4-core co-location run — four
// tenant streams contending on the shared STLB/L2C/LLC/walker/DRAM with
// per-tenant stats attribution live — and reports aggregate simulated
// instruction throughput. The per-step allocation discipline of the CMP
// loop is gated separately by TestSteadyStateAllocFree/StepMultiCore in
// internal/sim.
func BenchmarkMultiCoreRun(b *testing.B) {
	const cores = 4
	cat := workload.NewCatalog(8, 2)
	names := cat.ServerNames()
	cfg := config.Default()
	cfg.Cores = cores
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := sim.NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		streams := make([]workload.Stream, cores)
		for j := range streams {
			spec, err := cat.Get(names[j%len(names)])
			if err != nil {
				b.Fatal(err)
			}
			p := workload.Prefetch(spec.NewStream())
			defer p.Close()
			streams[j] = p
		}
		if _, err := m.RunWarmup(streams, 20_000, 50_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cores*(20_000+50_000)*b.N)/b.Elapsed().Seconds(), "instr/s")
}

func itoa(n int) string { return strconv.Itoa(n) }
