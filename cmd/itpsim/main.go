// Command itpsim runs simulations: one workload (or an SMT pair) with the
// full statistics report, or — given a comma-separated workload list — a
// supervised multi-workload batch where each simulation runs under the
// fault-tolerant harness (panic containment, retries, per-job deadline,
// forward-progress watchdog, checkpoint/resume).
//
// Examples:
//
//	itpsim -workload srv_000
//	itpsim -workload srv_000 -stlb itp -l2c xptp -n 2000000
//	itpsim -workload srv_000 -smt srv_001 -stlb itp -l2c xptp
//	itpsim -workload srv_000,srv_001 -cores 4 -stlb itp -l2c xptp
//	itpsim -workload srv_000,srv_001,spec_000 -checkpoint run.ckpt
//	itpsim -workload srv_000,srv_001 -retries 2 -job-timeout 10m
//	itpsim -list
//	itpsim -trace trace.itpt.gz -stlb itp
//	itpsim -workload srv_000 -beacon-interval 100000 -audit
//	itpsim -workload srv_000 -chaos read -retries 2 -beacon-interval 100000
//	itpsim -workload srv_000 -shards 8 -func-warmup 800000
//	itpsim -workload srv_000 -n 100000000 -sample-phases 8 -sample-window 1000000
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"runtime"
	"strings"
	"time"

	"itpsim/internal/chaos"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/trace"
	"itpsim/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "srv_000", "catalogue workload(s) to run, comma-separated")
		smtPartner   = flag.String("smt", "", "co-run this second workload on thread 1 (single-workload mode only)")
		coresN       = flag.Int("cores", 0, "simulate a CMP with this many cores, one tenant per core; -workload names are cycled to fill the cores (0/1 = single core)")
		tracePath    = flag.String("trace", "", "run a recorded trace file instead of a catalogue workload")
		stlbPol      = flag.String("stlb", "lru", "STLB policy: lru, itp, chirp, problru")
		l2cPol       = flag.String("l2c", "lru", "L2C policy: lru, xptp, xptp-static, ptp, tdrrip, drrip, srrip, ship, mockingjay")
		llcPol       = flag.String("llc", "lru", "LLC policy: lru, ship, mockingjay")
		warmup       = flag.Uint64("warmup", 1_000_000, "warmup instructions per thread")
		measure      = flag.Uint64("n", 3_000_000, "measured instructions per thread")
		itlbEntries  = flag.Int("itlb", 64, "ITLB entries")
		stlbEntries  = flag.Int("stlb-entries", 1536, "STLB entries")
		splitSTLB    = flag.Bool("split-stlb", false, "use split instruction/data STLBs")
		hugeFrac     = flag.Float64("huge", 0, "fraction of footprint on 2MB pages")
		probP        = flag.Float64("p", 0.8, "keep-instructions probability for -stlb problru")
		configJSON   = flag.String("config", "", "load full machine config from JSON file")
		dumpConfig   = flag.Bool("dump-config", false, "print the effective config as JSON and exit")
		list         = flag.Bool("list", false, "list catalogue workloads and exit")

		metricsOut    = flag.String("metrics-out", "", "write the per-window metrics series (JSON lines) to this file")
		metricsWindow = flag.Uint64("metrics-window", 0, "metrics sampling window in retired instructions (0 = the adaptive controller's window when one exists, else 1000)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")

		beaconEvery = flag.Uint64("beacon-interval", 0, "emit deterministic state beacons every N retired instructions (0 disables; the final chain fingerprint prints with the report)")
		auditOn     = flag.Bool("audit", false, "run the structural invariant auditor during simulation; violations abort the run with a diagnosis")
		chaosKind   = flag.String("chaos", "", "robustness drill, inject a seeded fault: read (tear trace ingestion mid-stream; retries recover), torn-metrics, slow-metrics")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for -chaos fault placement and the retry-backoff jitter")

		retries     = flag.Int("retries", 0, "retry attempts for transiently failed jobs")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none)")
		checkpoint  = flag.String("checkpoint", "", "JSON-lines checkpoint journal; completed jobs are skipped on re-run")
		wdInterval  = flag.Duration("watchdog-interval", 5*time.Second, "forward-progress sampling period (0 disables the watchdog)")
		wdSamples   = flag.Int("watchdog-samples", 6, "consecutive no-progress samples before a run is killed")
		parallelism = flag.Int("parallel", 0, "concurrent simulations in multi-workload mode (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", 1, "split the run into this many parallel warmup+measure segments (single catalogue workload only; 1 = serial)")

		samplePhases = flag.Int("sample-phases", 0, "phase-sample the run: classify the measured region into K phases from an LRU-baseline profiling pre-pass and simulate one representative interval per phase in detail (0 = off; error bounds in DESIGN.md §14)")
		sampleWindow = flag.Uint64("sample-window", 50_000, "phase-classification interval in retired instructions; -warmup and -n must be multiples of it when -sample-phases > 1")
		funcWarmup   = flag.Uint64("func-warmup", 0, "replay this prefix of each segment's warmup functionally (TLB/cache/predictor state only, no pipeline); must leave a detailed warmup suffix. Applies to -shards and -sample-phases runs")
	)
	flag.Parse()

	cat := workload.NewCatalog(120, 20)
	if *list {
		for _, n := range cat.Names() {
			spec, _ := cat.Get(n)
			fmt.Printf("%-10s %-7s pressure=%s\n", n, spec.Kind, spec.Band)
		}
		return
	}

	cfg := config.Default()
	if *configJSON != "" {
		data, err := os.ReadFile(*configJSON)
		if err != nil {
			fatal(err)
		}
		cfg, err = config.FromJSON(data)
		if err != nil {
			fatal(err)
		}
	}
	cfg = cfg.WithITLBEntries(*itlbEntries).WithSTLBEntries(*stlbEntries)
	cfg.STLBPolicy = *stlbPol
	cfg.L2CPolicy = *l2cPol
	cfg.LLCPolicy = *llcPol
	cfg.SplitSTLB = *splitSTLB
	cfg.HugePageFraction = *hugeFrac
	cfg.ProbKeepInstr = *probP
	if *coresN > 0 {
		cfg.Cores = *coresN
	}
	if cfg.Cores > 1 {
		switch {
		case *smtPartner != "":
			fatal(fmt.Errorf("-smt is a single-core mode; it cannot combine with -cores %d", cfg.Cores))
		case *shards > 1:
			fatal(fmt.Errorf("-shards splits one stream; multi-core runs (-cores %d) must run whole", cfg.Cores))
		case *samplePhases > 0:
			fatal(fmt.Errorf("-sample-phases samples one stream; multi-core runs (-cores %d) must run whole", cfg.Cores))
		case *funcWarmup > 0:
			fatal(fmt.Errorf("-func-warmup is a single-core mode; it cannot combine with -cores %d", cfg.Cores))
		case *tracePath != "":
			fatal(fmt.Errorf("-cores needs catalogue workloads; recorded traces are single-stream"))
		}
	}

	if *dumpConfig {
		data, err := cfg.MarshalPretty()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}

	hopts := harness.Options{
		Parallelism:      *parallelism,
		Retries:          *retries,
		JobTimeout:       *jobTimeout,
		WatchdogInterval: *wdInterval,
		WatchdogSamples:  *wdSamples,
		Checkpoint:       *checkpoint,
		Seed:             *chaosSeed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if hopts.Parallelism <= 0 {
		hopts.Parallelism = runtime.GOMAXPROCS(0)
	}

	names := splitNonEmpty(*workloadName)

	// Observability: the optional JSONL series export and the pprof/expvar
	// debug server. attachMetrics instruments one machine per harness job;
	// with neither flag set it is free (no sampler is attached).
	if *pprofAddr != "" {
		//itp:daemon pprof/expvar debug server lives for the whole process by design
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "itpsim: pprof server:", err)
			}
		}()
	}
	// 0 = align the sampler with the adaptive controller, so each exported
	// window carries the decision that exact window produced; without a
	// controller fall back to the paper's 1000-instruction window.
	mWindow := *metricsWindow
	if mWindow == 0 {
		mWindow = metrics.DefaultWindow
		if cfg.L2CPolicy == "xptp" && cfg.XPTP.WindowInstr != 0 {
			mWindow = cfg.XPTP.WindowInstr
		}
	}
	var exporter *metrics.JSONL
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// The metrics drills fault the export path only: the simulation
		// must complete with an identical beacon chain either way.
		var sink io.Writer = f
		switch *chaosKind {
		case "torn-metrics":
			sink = chaos.TornAfter(f, chaos.NewRNG(*chaosSeed).Between(256, 1<<20))
		case "slow-metrics":
			sink = chaos.Slow(f, func() { time.Sleep(200 * time.Microsecond) })
		}
		exporter = metrics.NewJSONL(sink)
		cfgJSON, err := cfg.MarshalPretty()
		if err != nil {
			fatal(err)
		}
		series := names
		if *tracePath != "" {
			series = []string{*tracePath}
		}
		if err := exporter.Manifest(metrics.Manifest{
			Tool: "itpsim",
			Git:  metrics.GitDescribe(),
			//itp:wallclock — manifest timestamp only; never feeds the simulation
			Time:        time.Now().UTC().Format(time.RFC3339),
			ConfigHash:  metrics.ConfigHash(cfgJSON),
			WindowInstr: mWindow,
			Policies:    map[string]string{"stlb": cfg.STLBPolicy, "l2c": cfg.L2CPolicy, "llc": cfg.LLCPolicy},
			Workloads:   series,
		}); err != nil {
			fatal(err)
		}
	}
	// attachMetrics arms each job's machine: robustness layers (beacons,
	// auditor) first, then the optional windowed sampler and its export.
	attachMetrics := func(m *sim.Machine, job string) {
		if *beaconEvery > 0 {
			m.EnableBeacons(*beaconEvery)
		}
		if *auditOn {
			m.EnableAudit(0)
		}
		if exporter == nil && *pprofAddr == "" {
			return
		}
		w := m.InstrumentMetrics(mWindow)
		if exporter != nil {
			w.SetSink(exporter.WindowSink(job, func(err error) {
				fmt.Fprintf(os.Stderr, "itpsim: metrics export (%s): %v\n", job, err)
			}))
		}
		w.PublishExpvar("itpsim." + job)
	}
	// faultStream is the -chaos read drill: the first attempt's ingestion
	// dies mid-stream with a structured fault; retries read clean bytes
	// and must reproduce the fault-free beacon chain.
	faultStream := func(s workload.Stream, attempt int) workload.Stream {
		if *chaosKind != "read" || attempt != 0 {
			return s
		}
		at := uint64(chaos.NewRNG(*chaosSeed).Between(1, int64(*warmup+*measure)))
		return workload.NewErrorStream(s, at,
			&chaos.Error{Kind: chaos.ReadFault, Op: "ingest", Off: int64(at)})
	}

	if *funcWarmup > 0 && *funcWarmup >= *warmup {
		fatal(fmt.Errorf("-func-warmup %d must leave a detailed warmup suffix (-warmup %d)", *funcWarmup, *warmup))
	}

	if *samplePhases > 0 {
		if *tracePath != "" || *smtPartner != "" || *chaosKind != "" {
			fatal(fmt.Errorf("-sample-phases supports a single catalogue workload (no -trace, -smt, or -chaos)"))
		}
		if len(names) > 1 {
			fatal(fmt.Errorf("-sample-phases applies to a single -workload, not a batch"))
		}
		if *shards > 1 {
			fatal(fmt.Errorf("-sample-phases and -shards are alternative parallel modes; pick one"))
		}
		if exporter != nil {
			fatal(fmt.Errorf("-metrics-out is not supported with -sample-phases (representatives carry no stitched window series)"))
		}
		runSampled(cat, cfg, hopts, names[0], *samplePhases, *sampleWindow, *warmup, *funcWarmup, *measure, *beaconEvery, *auditOn)
		return
	}

	if *tracePath == "" && len(names) > 1 && cfg.Cores <= 1 {
		if *smtPartner != "" {
			fatal(fmt.Errorf("-smt requires a single -workload"))
		}
		if *shards > 1 {
			fatal(fmt.Errorf("-shards applies to a single -workload, not a batch"))
		}
		if *funcWarmup > 0 {
			fatal(fmt.Errorf("-func-warmup applies to a single -workload, not a batch"))
		}
		runBatch(cat, cfg, hopts, names, *warmup, *measure, attachMetrics, faultStream)
		return
	}

	if *shards > 1 || *funcWarmup > 0 {
		if *tracePath != "" || *smtPartner != "" || *chaosKind != "" {
			fatal(fmt.Errorf("-shards and -func-warmup support a single catalogue workload (no -trace, -smt, or -chaos)"))
		}
		var window uint64
		if exporter != nil {
			window = mWindow
		}
		runSharded(cat, cfg, hopts, names[0], *shards, *warmup, *funcWarmup, *measure, *beaconEvery, *auditOn, window, exporter)
		return
	}

	// Single-run mode (catalogue workload, SMT pair, or recorded trace):
	// still supervised, with the full statistics report on success.
	var mkStreams func() ([]workload.Stream, []string, error)
	key := fmt.Sprintf("itpsim|%s|%s/%s/%s|h%.2f|c%d|%d/%d",
		*workloadName+"+"+*smtPartner, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy,
		cfg.HugePageFraction, cfg.Cores, *warmup, *measure)
	if *tracePath != "" {
		key = fmt.Sprintf("itpsim|trace:%s|%s/%s/%s|%d/%d",
			*tracePath, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, *warmup, *measure)
		mkStreams = func() ([]workload.Stream, []string, error) {
			f, err := os.Open(*tracePath)
			if err != nil {
				return nil, nil, harness.Permanent(err)
			}
			r, err := trace.NewReader(f)
			if err != nil {
				f.Close()
				return nil, nil, harness.Permanent(err)
			}
			return []workload.Stream{r}, []string{*tracePath}, nil
		}
	} else if cfg.Cores > 1 {
		// Multi-core mode: one stream per core, cycling the -workload list
		// so a short list still fills every core with a tenant.
		mkStreams = func() ([]workload.Stream, []string, error) {
			streams := make([]workload.Stream, cfg.Cores)
			labels := make([]string, cfg.Cores)
			for i := range streams {
				spec, err := cat.Get(names[i%len(names)])
				if err != nil {
					return nil, nil, harness.Permanent(err)
				}
				streams[i] = spec.NewStream()
				labels[i] = spec.Name
			}
			return streams, labels, nil
		}
	} else {
		mkStreams = func() ([]workload.Stream, []string, error) {
			spec, err := cat.Get(names[0])
			if err != nil {
				return nil, nil, harness.Permanent(err)
			}
			streams := []workload.Stream{spec.NewStream()}
			labels := []string{spec.Name}
			if *smtPartner != "" {
				partner, err := cat.Get(*smtPartner)
				if err != nil {
					return nil, nil, harness.Permanent(err)
				}
				streams = append(streams, partner.NewStream())
				labels = append(labels, partner.Name)
			}
			return streams, labels, nil
		}
	}

	var labels []string
	job := harness.Job[*stats.Sim]{
		Key: key,
		Run: func(jc *harness.JobContext) (*stats.Sim, error) {
			streams, ls, err := mkStreams()
			if err != nil {
				return nil, err
			}
			labels = ls
			m, err := sim.NewMachine(cfg)
			if err != nil {
				return nil, harness.Permanent(err)
			}
			jc.Attach(m)
			attachMetrics(m, ls[0])
			// Decode-ahead ingestion: trace decode (gzip+uvarint) or
			// synthetic generation overlaps the simulation.
			for i, s := range streams {
				p := workload.Prefetch(faultStream(s, jc.Attempt()))
				defer p.Close()
				streams[i] = p
			}
			res, err := m.RunWarmup(streams, *warmup, *measure)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		},
	}
	outs, err := harness.RunAll(hopts, []harness.Job[*stats.Sim]{job})
	if err != nil {
		fatal(err)
	}
	s := outs[0].Result
	if outs[0].Cached {
		labels = []string{*workloadName + " (from checkpoint)"}
	}
	fmt.Printf("workloads: %v\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d measure=%d per thread\n\n",
		labels, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, *warmup, *measure)
	fmt.Print(s)
	if cfg.Cores > 1 && len(s.Cores) >= cfg.Cores {
		fmt.Printf("\n%-4s %-12s %8s %12s %9s %9s\n", "core", "tenant", "IPC", "instr", "STLB-MPKI", "L1D-MPKI")
		for i := 0; i < cfg.Cores; i++ {
			ten := &s.Cores[i]
			label := "-"
			if i < len(labels) {
				label = labels[i]
			}
			fmt.Printf("%-4d %-12s %8.4f %12d %9.3f %9.3f\n",
				i, label, ten.IPC(), ten.Instructions,
				ten.STLB.MPKI(ten.Instructions), ten.L1D.MPKI(ten.Instructions))
		}
	}
	if b := outs[0].Beacon; b != nil {
		fmt.Printf("\nbeacon chain: %016x over %d beacons\n", b.Chain, b.Count)
	}
}

// runSharded is the parallel single-workload mode: the measured region is
// split into K segments, each simulated on its own machine under the
// supervisor (per-shard retries, watchdog, checkpoint/resume of finished
// shards), and the per-segment statistics are stitched into one report.
// With an exporter, the stitched window series — already rebased into
// serial coordinates — is written after the run completes.
func runSharded(cat *workload.Catalog, cfg config.SystemConfig, hopts harness.Options,
	name string, shards int, warmup, funcWarmup, measure, beaconEvery uint64, auditOn bool,
	window uint64, exporter *metrics.JSONL) {
	spec, err := cat.Get(name)
	if err != nil {
		fatal(err)
	}
	scfg := shard.Config{
		System:         cfg,
		Plan:           shard.Plan{Shards: shards, Warmup: warmup, Measure: measure, FuncWarmup: funcWarmup},
		BeaconInterval: beaconEvery,
		Audit:          auditOn,
		MetricsWindow:  window,
	}
	key := fmt.Sprintf("itpsim|%s|%s/%s/%s|h%.2f|%d/%d",
		name, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy,
		cfg.HugePageFraction, warmup, measure)
	res, err := shard.Run(scfg, key, shard.Source{Name: name, New: spec.NewStream}, shard.NewIndex(), hopts)
	if err != nil {
		fatal(err)
	}
	if exporter != nil {
		sink := exporter.WindowSink(name, func(err error) {
			fmt.Fprintf(os.Stderr, "itpsim: metrics export (%s): %v\n", name, err)
		})
		for i := range res.Windows {
			sink(&res.Windows[i])
		}
	}
	fmt.Printf("workload: %s (%d shards)\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d per shard, measure=%d total\n\n",
		name, shards, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, warmup, measure)
	fmt.Print(res.Stats)
	fmt.Printf("\n%-6s %12s %12s %9s %s\n", "shard", "offset", "measured", "attempts", "status")
	for _, sh := range res.Shards {
		status := "ok"
		if sh.Cached {
			status = "ok (checkpoint)"
		}
		if sh.Beacon != nil {
			status += fmt.Sprintf(" chain=%016x/%d", sh.Beacon.Chain, sh.Beacon.Count)
		}
		fmt.Printf("%-6d %12d %12d %9d %s\n", sh.Segment.Index, sh.Segment.Offset, sh.Segment.Measure, sh.Attempts, status)
	}
	if b := res.Beacon(); b != nil {
		fmt.Printf("\nbeacon chain: %016x over %d beacons (serial-exact: 1 shard)\n", b.Chain, b.Count)
	}
}

// runSampled is the phase-sampling mode: a cheap profiling pre-pass at
// the LRU baseline classifies the measured region into K phases, then only
// one representative interval per phase is simulated in detail — each as a
// supervised parallel job — and the full-run statistics are reconstructed
// as the phase-occupancy-weighted sum (error bounds in DESIGN.md §14).
func runSampled(cat *workload.Catalog, cfg config.SystemConfig, hopts harness.Options,
	name string, phases int, window, warmup, funcWarmup, measure, beaconEvery uint64, auditOn bool) {
	spec, err := cat.Get(name)
	if err != nil {
		fatal(err)
	}
	scfg := sample.Config{
		System:         cfg,
		Phases:         phases,
		Window:         window,
		Warmup:         warmup,
		Measure:        measure,
		BeaconInterval: beaconEvery,
		Audit:          auditOn,
	}
	if funcWarmup > 0 {
		scfg.DetailWarmup = warmup - funcWarmup
	}
	key := fmt.Sprintf("itpsim|%s|%s/%s/%s|h%.2f|%d/%d",
		name, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy,
		cfg.HugePageFraction, warmup, measure)
	res, err := sample.Run(scfg, key, shard.Source{Name: name, New: spec.NewStream}, shard.NewIndex(), nil, hopts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload: %s (%d of %d phases requested; %d-instr windows)\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d per representative (%d functional), measure=%d reconstructed\n\n",
		name, len(res.Reps), phases, window, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, warmup, funcWarmup, measure)
	fmt.Print(res.Stats)
	fmt.Printf("\n%-6s %-8s %12s %8s %9s %s\n", "phase", "window", "offset", "weight", "attempts", "status")
	for _, rp := range res.Reps {
		status := "ok"
		if rp.Cached {
			status = "ok (checkpoint)"
		}
		if rp.Beacon != nil {
			status += fmt.Sprintf(" chain=%016x/%d", rp.Beacon.Chain, rp.Beacon.Count)
		}
		fmt.Printf("%-6d %-8d %12d %8d %9d %s\n",
			rp.Rep.Phase, rp.Rep.Window, rp.Segment.Offset, rp.Rep.Weight, rp.Attempts, status)
	}
	if b := res.Beacon(); b != nil {
		fmt.Printf("\nbeacon chain: %016x over %d beacons (serial-exact: 1 phase, detailed warmup)\n", b.Chain, b.Count)
	}
}

// runBatch is the supervised multi-workload mode: one harness job per
// workload, a compact summary table, and an exit status reflecting
// whether every job succeeded.
func runBatch(cat *workload.Catalog, cfg config.SystemConfig, hopts harness.Options,
	names []string, warmup, measure uint64, attachMetrics func(*sim.Machine, string),
	faultStream func(workload.Stream, int) workload.Stream) {
	jobs := make([]harness.Job[*stats.Sim], len(names))
	for i, name := range names {
		name := name
		jobs[i] = harness.Job[*stats.Sim]{
			Key: fmt.Sprintf("itpsim|%s|%s/%s/%s|h%.2f|%d/%d",
				name, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy,
				cfg.HugePageFraction, warmup, measure),
			Run: func(jc *harness.JobContext) (*stats.Sim, error) {
				spec, err := cat.Get(name)
				if err != nil {
					return nil, harness.Permanent(err)
				}
				m, err := sim.NewMachine(cfg)
				if err != nil {
					return nil, harness.Permanent(err)
				}
				jc.Attach(m)
				attachMetrics(m, name)
				p := workload.Prefetch(faultStream(spec.NewStream(), jc.Attempt()))
				defer p.Close()
				res, err := m.RunWarmup([]workload.Stream{p}, warmup, measure)
				if err != nil {
					return nil, err
				}
				return res.Stats, nil
			},
		}
	}
	outs, err := harness.RunAll(hopts, jobs)
	if outs == nil {
		fatal(err)
	}

	fmt.Printf("batch: %d workloads; policies STLB=%s L2C=%s LLC=%s; %d+%d instr\n\n",
		len(names), cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, warmup, measure)
	fmt.Printf("%-12s %8s %9s %9s %8s %s\n", "workload", "IPC", "STLB-MPKI", "walk-lat", "itc%", "status")
	failed := 0
	for i, out := range outs {
		if out.Err != nil {
			failed++
			fmt.Printf("%-12s %8s %9s %9s %8s FAILED (attempt %d)\n",
				names[i], "-", "-", "-", "-", out.Attempts)
			continue
		}
		s := out.Result
		status := "ok"
		if out.Cached {
			status = "ok (checkpoint)"
		}
		if b := out.Beacon; b != nil {
			status += fmt.Sprintf(" chain=%016x/%d", b.Chain, b.Count)
		}
		ti := s.TotalInstructions()
		fmt.Printf("%-12s %8.4f %9.3f %9.1f %7.1f%% %s\n",
			names[i], s.IPC(), s.STLB.MPKI(ti), s.STLB.AvgMissLatency(),
			100*s.InstrTransFraction(), status)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "\nitpsim: %d/%d jobs failed:\n%v\n", failed, len(names), err)
		os.Exit(1)
	}
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "itpsim:", err)
	os.Exit(1)
}
