// Command itpsim runs simulations: one workload (or an SMT pair, a CMP
// of tenants, or a recorded trace) with the full statistics report, or —
// given a comma-separated workload list — a supervised batch with one
// summary row per workload. Every run goes through the fault-tolerant
// harness (panic containment, retries, per-job deadline, forward-progress
// watchdog, checkpoint/resume); the run-mode rules are DESIGN.md §7's.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"itpsim/internal/chaos"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/run"
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
		chaosKind    = flag.String("chaos", "", "robustness drill, inject a seeded fault: read (tear trace ingestion mid-stream; retries recover), torn-metrics, slow-metrics")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "seed for -chaos fault placement and the retry-backoff jitter")
	)
	var f run.Flags
	f.Register(flag.CommandLine)
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
		if err == nil {
			cfg, err = config.FromJSON(data)
		}
		if err != nil {
			run.Exit("itpsim", 1, err)
		}
	}
	cfg = cfg.WithITLBEntries(*itlbEntries).WithSTLBEntries(*stlbEntries)
	cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy = *stlbPol, *l2cPol, *llcPol
	cfg.SplitSTLB = *splitSTLB
	cfg.HugePageFraction = *hugeFrac
	cfg.ProbKeepInstr = *probP
	if *coresN > 0 {
		cfg.Cores = *coresN
	}
	if *dumpConfig {
		data, err := cfg.MarshalPretty()
		if err != nil {
			run.Exit("itpsim", 1, err)
		}
		fmt.Println(string(data))
		return
	}

	// One spec per -workload name is a batch; everything else is one run.
	names := splitNonEmpty(*workloadName)
	one := run.Spec{Tenants: names, Trace: *tracePath, System: cfg, Warmup: *warmup, Measure: *measure}
	switch {
	case *tracePath != "":
		one.Tenants = nil
	case *smtPartner != "":
		one.Tenants = append(names, *smtPartner)
		one.System.SMT = true
	}
	f.Apply(&one)
	specs := []run.Spec{one}
	batch := *tracePath == "" && *smtPartner == "" && cfg.Cores <= 1 && len(names) > 1
	if batch {
		specs = make([]run.Spec, len(names))
		for i, n := range names {
			specs[i] = one
			specs[i].Tenants = []string{n}
		}
	}
	f.Check("itpsim", specs)
	if *chaosKind != "" && one.Split() {
		run.Exit("itpsim", 2, errors.New("-chaos drills run whole; they cannot combine with -shards, -func-warmup or -sample-phases"))
	}

	// The metrics drills fault the export path only: the simulation must
	// complete with an identical beacon chain either way.
	var wrap func(io.Writer) io.Writer
	switch *chaosKind {
	case "torn-metrics":
		wrap = func(w io.Writer) io.Writer { return chaos.TornAfter(w, chaos.NewRNG(*chaosSeed).Between(256, 1<<20)) }
	case "slow-metrics":
		wrap = func(w io.Writer) io.Writer { return chaos.Slow(w, func() { time.Sleep(200 * time.Microsecond) }) }
	}
	series := names
	if *tracePath != "" {
		series = []string{*tracePath}
	}
	arm, export, err := f.Observe("itpsim", cfg, series, nil, wrap)
	if err != nil {
		run.Exit("itpsim", 1, err)
	}
	if *chaosKind == "read" {
		// The first attempt's ingestion dies mid-stream with a structured
		// fault; retries read clean bytes and must reproduce the
		// fault-free beacon chain.
		arm.Stream = func(s workload.Stream, attempt int) workload.Stream {
			if attempt != 0 {
				return s
			}
			at := uint64(chaos.NewRNG(*chaosSeed).Between(1, int64(*warmup+*measure)))
			return workload.NewErrorStream(s, at, &chaos.Error{Kind: chaos.ReadFault, Op: "ingest", Off: int64(at)})
		}
	}

	outs, err := run.NewRunner(cat).Execute(f.Options(*chaosSeed, run.Stderr), specs, arm)
	// A failed export fails the run once its results are printed.
	exportErr := export.Close()
	defer func() {
		if exportErr != nil {
			run.Exit("itpsim", 1, fmt.Errorf("metrics export: %w", exportErr))
		}
	}()
	if outs == nil {
		run.Exit("itpsim", 1, err)
	}
	if batch {
		printBatch(cfg, names, *warmup, *measure, outs)
		if err != nil {
			failed := 0
			for _, o := range outs {
				if o.Err != nil {
					failed++
				}
			}
			fmt.Fprintf(os.Stderr, "\nitpsim: %d/%d jobs failed:\n%v\n", failed, len(names), err)
			os.Exit(1)
		}
		return
	}
	if err != nil {
		run.Exit("itpsim", 1, err)
	}
	switch o := outs[0]; {
	case o.Plan != nil:
		printSampled(cfg, names[0], f.Phases, f.Window, *warmup, f.FuncWarmup, *measure, o)
	case o.Split != nil:
		printSharded(cfg, names[0], f.Shards, *warmup, *measure, o)
	default:
		labels := series
		if cfg.Cores > 1 {
			labels = make([]string, cfg.Cores)
			for i := range labels {
				labels[i] = names[i%len(names)]
			}
		} else if *smtPartner != "" {
			labels = one.Tenants
		}
		if o.Cached {
			labels = []string{*workloadName + " (from checkpoint)"}
		}
		printSingle(cfg, labels, *warmup, *measure, o)
	}
}

// printSingle is the full statistics report of one whole run, with the
// per-tenant table of a CMP run.
func printSingle(cfg config.SystemConfig, labels []string, warmup, measure uint64, o run.Result) {
	fmt.Printf("workloads: %v\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d measure=%d per thread\n\n",
		labels, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, warmup, measure)
	s := o.Stats
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
	if b := o.Beacon; b != nil {
		fmt.Printf("\nbeacon chain: %016x over %d beacons\n", b.Chain, b.Count)
	}
}

// printSharded reports a sharded run: the stitched statistics and one
// status row per shard.
func printSharded(cfg config.SystemConfig, name string, shards int, warmup, measure uint64, o run.Result) {
	fmt.Printf("workload: %s (%d shards)\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d per shard, measure=%d total\n\n",
		name, shards, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, warmup, measure)
	fmt.Print(o.Stats)
	fmt.Printf("\n%-6s %12s %12s %9s %s\n", "shard", "offset", "measured", "attempts", "status")
	for _, sh := range o.Split.Segments {
		fmt.Printf("%-6d %12d %12d %9d %s\n", sh.Segment.Index, sh.Segment.Offset, sh.Segment.Measure, sh.Attempts, status(sh.Cached, sh.Beacon))
	}
	if b := o.Beacon; b != nil {
		fmt.Printf("\nbeacon chain: %016x over %d beacons (serial-exact: 1 shard)\n", b.Chain, b.Count)
	}
}

// printSampled reports a phase-sampled run: the reconstructed statistics
// and one status row per representative.
func printSampled(cfg config.SystemConfig, name string, phases int, window, warmup, funcWarmup, measure uint64, o run.Result) {
	fmt.Printf("workload: %s (%d of %d phases requested; %d-instr windows)\npolicies: STLB=%s L2C=%s LLC=%s\nwarmup=%d per representative (%d functional), measure=%d reconstructed\n\n",
		name, len(o.Plan.Reps), phases, window, cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, warmup, funcWarmup, measure)
	fmt.Print(o.Stats)
	fmt.Printf("\n%-6s %-8s %12s %8s %9s %s\n", "phase", "window", "offset", "weight", "attempts", "status")
	for i, sg := range o.Split.Segments {
		rep := o.Plan.Reps[i]
		fmt.Printf("%-6d %-8d %12d %8d %9d %s\n",
			rep.Phase, rep.Window, sg.Segment.Offset, sg.Weight, sg.Attempts, status(sg.Cached, sg.Beacon))
	}
	if b := o.Beacon; b != nil {
		fmt.Printf("\nbeacon chain: %016x over %d beacons (serial-exact: 1 phase, detailed warmup)\n", b.Chain, b.Count)
	}
}

// printBatch is the compact one-row-per-workload summary of a batch.
func printBatch(cfg config.SystemConfig, names []string, warmup, measure uint64, outs []run.Result) {
	fmt.Printf("batch: %d workloads; policies STLB=%s L2C=%s LLC=%s; %d+%d instr\n\n",
		len(names), cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy, warmup, measure)
	fmt.Printf("%-12s %8s %9s %9s %8s %s\n", "workload", "IPC", "STLB-MPKI", "walk-lat", "itc%", "status")
	for i, o := range outs {
		if o.Err != nil {
			fmt.Printf("%-12s %8s %9s %9s %8s FAILED (attempt %d)\n", names[i], "-", "-", "-", "-", o.Attempts)
			continue
		}
		s := o.Stats
		ti := s.TotalInstructions()
		fmt.Printf("%-12s %8.4f %9.3f %9.1f %7.1f%% %s\n",
			names[i], s.IPC(), s.STLB.MPKI(ti), s.STLB.AvgMissLatency(),
			100*s.InstrTransFraction(), status(o.Cached, o.Beacon))
	}
}

// status is a job's status column: ok, whether it came from the
// checkpoint, and its beacon chain.
func status(cached bool, b *harness.BeaconStamp) string {
	s := "ok"
	if cached {
		s = "ok (checkpoint)"
	}
	if b != nil {
		s += fmt.Sprintf(" chain=%016x/%d", b.Chain, b.Count)
	}
	return s
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
