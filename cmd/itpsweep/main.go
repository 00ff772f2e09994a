// Command itpsweep runs custom parameter sweeps, the moral equivalent of
// the artifact's experiment-customisation workflow: pick a workload set,
// a policy combination, one machine parameter, and a list of values; get
// one row per value with IPC and the key translation metrics.
//
// Every simulation runs under the fault-tolerant harness: a panicking,
// erroring, or stalled job is reported (with a diagnostic snapshot) and
// the rest of the sweep completes; -checkpoint journals finished jobs so
// an interrupted sweep resumes where it stopped.
//
// Examples:
//
//	itpsweep -param xptp.k -values 2,4,6,8
//	itpsweep -param itp.n -values 1,2,4,6 -stlb itp
//	itpsweep -param stlb-entries -values 768,1536,3072 -workloads srv_000,srv_007
//	itpsweep -param huge -values 0,0.1,0.5,1.0 -stlb itp -l2c xptp
//	itpsweep -param rob -values 256,512 -retries 2 -job-timeout 10m -checkpoint sweep.ckpt
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// params maps sweepable parameter names to config mutators.
var params = map[string]func(*config.SystemConfig, float64) error{
	"itp.n": func(c *config.SystemConfig, v float64) error { c.ITP.N = int(v); return nil },
	"itp.m": func(c *config.SystemConfig, v float64) error { c.ITP.M = int(v); return nil },
	"itp.freqbits": func(c *config.SystemConfig, v float64) error {
		c.ITP.FreqBits = int(v)
		return nil
	},
	"xptp.k":  func(c *config.SystemConfig, v float64) error { c.XPTP.K = int(v); return nil },
	"xptp.t1": func(c *config.SystemConfig, v float64) error { c.XPTP.T1 = int(v); return nil },
	"xptp.window": func(c *config.SystemConfig, v float64) error {
		c.XPTP.WindowInstr = uint64(v)
		return nil
	},
	"itlb": func(c *config.SystemConfig, v float64) error {
		*c = c.WithITLBEntries(int(v))
		return nil
	},
	"stlb-entries": func(c *config.SystemConfig, v float64) error {
		*c = c.WithSTLBEntries(int(v))
		return nil
	},
	"huge": func(c *config.SystemConfig, v float64) error {
		c.HugePageFraction = v
		return nil
	},
	"fdip-distance": func(c *config.SystemConfig, v float64) error {
		c.FDIPDistance = int(v)
		return nil
	},
	"rob": func(c *config.SystemConfig, v float64) error { c.ROBSize = int(v); return nil },
	"p":   func(c *config.SystemConfig, v float64) error { c.ProbKeepInstr = v; return nil },
}

func main() {
	var (
		param     = flag.String("param", "", "parameter to sweep: "+paramNames())
		values    = flag.String("values", "", "comma-separated values")
		workloads = flag.String("workloads", "srv_000,srv_007,srv_013", "comma-separated catalogue workloads")
		stlbPol   = flag.String("stlb", "itp", "STLB policy")
		l2cPol    = flag.String("l2c", "xptp", "L2C policy")
		llcPol    = flag.String("llc", "lru", "LLC policy")
		warmup    = flag.Uint64("warmup", 500_000, "warmup instructions")
		measure   = flag.Uint64("n", 1_500_000, "measured instructions")
		coresN    = flag.Int("cores", 0, "run each grid point on a CMP with this many cores, every core running a copy of the point's workload (0/1 = single core)")

		metricsOut    = flag.String("metrics-out", "", "write per-window metrics series (JSON lines, all jobs share the file) to this file")
		metricsWindow = flag.Uint64("metrics-window", 0, "metrics sampling window in retired instructions (0 = each job's adaptive controller window when one exists, else 1000)")
		pprofAddr     = flag.String("pprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")

		beaconEvery = flag.Uint64("beacon-interval", 0, "emit deterministic state beacons every N retired instructions (0 disables); chains are journaled with the checkpoint")
		auditOn     = flag.Bool("audit", false, "run the structural invariant auditor during each simulation; violations fail the job with a diagnosis")

		retries     = flag.Int("retries", 0, "retry attempts for transiently failed jobs")
		jobTimeout  = flag.Duration("job-timeout", 0, "per-job wall-clock deadline (0 = none)")
		checkpoint  = flag.String("checkpoint", "", "JSON-lines checkpoint journal; completed jobs are skipped on re-run")
		wdInterval  = flag.Duration("watchdog-interval", 5*time.Second, "forward-progress sampling period (0 disables the watchdog)")
		wdSamples   = flag.Int("watchdog-samples", 6, "consecutive no-progress samples before a run is killed")
		parallelism = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		shards      = flag.Int("shards", 1, "split each grid point into this many parallel warmup+measure segments (1 = serial; see DESIGN.md §12 for the error bounds)")

		samplePhases = flag.Int("sample-phases", 0, "phase-sample each grid point: one LRU-baseline profile per (workload, geometry) classifies the run into K phases and only representative intervals simulate in detail (0 = off; error bounds in DESIGN.md §14)")
		sampleWindow = flag.Uint64("sample-window", 50_000, "phase-classification interval in retired instructions; -warmup and -n must be multiples of it when -sample-phases > 1")
		funcWarmup   = flag.Uint64("func-warmup", 0, "replay this prefix of each segment's warmup functionally (no pipeline); must leave a detailed warmup suffix. Applies to -shards and -sample-phases points")
	)
	flag.Parse()

	mutate, ok := params[*param]
	if !ok {
		fmt.Fprintf(os.Stderr, "itpsweep: -param must be one of %s\n", paramNames())
		os.Exit(2)
	}
	var vals []float64
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "itpsweep: bad value %q: %v\n", s, err)
			os.Exit(2)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		fmt.Fprintln(os.Stderr, "itpsweep: -values required")
		os.Exit(2)
	}
	if *coresN > 1 && (*shards > 1 || *samplePhases > 0 || *funcWarmup > 0) {
		fmt.Fprintln(os.Stderr, "itpsweep: -shards, -sample-phases, and -func-warmup split/sample one stream; multi-core points (-cores > 1) must run whole")
		os.Exit(2)
	}
	if *samplePhases > 0 && *shards > 1 {
		fmt.Fprintln(os.Stderr, "itpsweep: -sample-phases and -shards are alternative parallel modes; pick one")
		os.Exit(2)
	}
	if *funcWarmup > 0 && *funcWarmup >= *warmup {
		fmt.Fprintf(os.Stderr, "itpsweep: -func-warmup %d must leave a detailed warmup suffix (-warmup %d)\n", *funcWarmup, *warmup)
		os.Exit(2)
	}
	var names []string
	for _, n := range strings.Split(*workloads, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}

	cat := workload.NewCatalog(120, 20)

	// Observability: one shared JSONL series for the whole grid (lines are
	// tagged with the job label) and an optional pprof/expvar server.
	if *pprofAddr != "" {
		//itp:daemon pprof/expvar debug server lives for the whole process by design
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "itpsweep: pprof server:", err)
			}
		}()
	}
	var exporter *metrics.JSONL
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itpsweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		exporter = metrics.NewJSONL(f)
		baseCfg := config.Default()
		baseCfg.STLBPolicy = *stlbPol
		baseCfg.L2CPolicy = *l2cPol
		baseCfg.LLCPolicy = *llcPol
		cfgJSON, _ := baseCfg.MarshalPretty()
		manifestWindow := *metricsWindow
		if manifestWindow == 0 {
			manifestWindow = metrics.DefaultWindow
			if baseCfg.L2CPolicy == "xptp" && baseCfg.XPTP.WindowInstr != 0 {
				manifestWindow = baseCfg.XPTP.WindowInstr
			}
		}
		if err := exporter.Manifest(metrics.Manifest{
			Tool: "itpsweep",
			Git:  metrics.GitDescribe(),
			//itp:wallclock — manifest timestamp only; never feeds the simulation
			Time:        time.Now().UTC().Format(time.RFC3339),
			ConfigHash:  metrics.ConfigHash(cfgJSON),
			WindowInstr: manifestWindow,
			Policies:    map[string]string{"stlb": *stlbPol, "l2c": *l2cPol, "llc": *llcPol},
			Workloads:   names,
			Extra:       map[string]string{"param": *param, "values": *values},
		}); err != nil {
			fmt.Fprintln(os.Stderr, "itpsweep:", err)
			os.Exit(1)
		}
	}
	attachMetrics := func(m *sim.Machine, job string) {
		if exporter == nil && *pprofAddr == "" {
			return
		}
		// 0 = align the sampler with this job's adaptive controller, so each
		// exported window carries the decision that window produced (sweeps
		// over xptp.window get per-job alignment this way).
		mw := *metricsWindow
		if mw == 0 {
			if c := m.Controller(); c != nil {
				mw = uint64(c.WindowInstr())
			} else {
				mw = metrics.DefaultWindow
			}
		}
		w := m.InstrumentMetrics(mw)
		if exporter != nil {
			w.SetSink(exporter.WindowSink(job, func(err error) {
				fmt.Fprintf(os.Stderr, "itpsweep: metrics export (%s): %v\n", job, err)
			}))
		}
		w.PublishExpvar("itpsweep." + job)
	}

	hopts := harness.Options{
		Parallelism:      *parallelism,
		Retries:          *retries,
		JobTimeout:       *jobTimeout,
		WatchdogInterval: *wdInterval,
		WatchdogSamples:  *wdSamples,
		Checkpoint:       *checkpoint,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if hopts.Parallelism <= 0 {
		hopts.Parallelism = runtime.GOMAXPROCS(0)
	}

	// One row per (value, workload) point. Serially each point is one
	// harness job; with -shards every point expands into K segment jobs,
	// all flattened into the SAME RunAll so a shared checkpoint journal
	// keeps a single writer, then each point is stitched back into a row.
	type point struct {
		value    float64
		workload string
	}
	var pts []point
	var outs []harness.Outcome[*stats.Sim]
	var runErr error
	var totalJobs int
	if *samplePhases > 0 {
		if *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "itpsweep: -metrics-out is not supported with -sample-phases (representatives carry no stitched window series)")
			os.Exit(2)
		}
		// One LRU-baseline profile per (workload, machine geometry) plans
		// every point that shares it — for policy-parameter sweeps that is
		// one profile per workload for the WHOLE grid, which is where the
		// sampling speedup over serial sweeping comes from. The profiling
		// pre-passes run serially here; the representative jobs of all
		// points then flatten into one RunAll under a shared checkpoint.
		profiles := sample.NewProfiles()
		ix := shard.NewIndex()
		var plans []*sample.Plan
		var starts []int
		var flat []harness.Job[*shard.Payload]
		for _, v := range vals {
			for _, name := range names {
				pts = append(pts, point{v, name})
				cfg := config.Default()
				cfg.STLBPolicy = *stlbPol
				cfg.L2CPolicy = *l2cPol
				cfg.LLCPolicy = *llcPol
				if err := mutate(&cfg, v); err != nil {
					fmt.Fprintf(os.Stderr, "itpsweep: %s=%g: %v\n", *param, v, err)
					os.Exit(2)
				}
				spec, err := cat.Get(name)
				if err != nil {
					fmt.Fprintln(os.Stderr, "itpsweep:", err)
					os.Exit(2)
				}
				src := shard.Source{Name: name, New: spec.NewStream}
				scfg := sample.Config{
					System:         cfg,
					Phases:         *samplePhases,
					Window:         *sampleWindow,
					Warmup:         *warmup,
					Measure:        *measure,
					BeaconInterval: *beaconEvery,
					Audit:          *auditOn,
				}
				if *funcWarmup > 0 {
					scfg.DetailWarmup = *warmup - *funcWarmup
				}
				var plan *sample.Plan
				if scfg.Phases == 1 {
					plan, err = sample.BuildPlan(scfg, nil)
				} else {
					var prof []metrics.WindowRecord
					if prof, err = profiles.Get(scfg, src, nil); err == nil {
						plan, err = sample.BuildPlan(scfg, prof)
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "itpsweep: %s=%g %s: %v\n", *param, v, name, err)
					os.Exit(2)
				}
				key := fmt.Sprintf("sweep|%s=%g|%s|%s/%s/%s|%d/%d",
					*param, v, name, *stlbPol, *l2cPol, *llcPol, *warmup, *measure)
				js, err := plan.Jobs(key, src, ix)
				if err != nil {
					fmt.Fprintln(os.Stderr, "itpsweep:", err)
					os.Exit(2)
				}
				plans = append(plans, plan)
				starts = append(starts, len(flat))
				flat = append(flat, js...)
			}
		}
		totalJobs = len(flat)
		flatOuts, err := harness.RunAll(hopts, flat)
		if flatOuts == nil {
			fmt.Fprintln(os.Stderr, "itpsweep:", err)
			os.Exit(1)
		}
		runErr = err
		outs = make([]harness.Outcome[*stats.Sim], len(pts))
		for i := range pts {
			end := len(flatOuts)
			if i+1 < len(starts) {
				end = starts[i+1]
			}
			res, serr := plans[i].Stitch(flatOuts[starts[i]:end])
			if serr != nil {
				outs[i].Err = serr
				continue
			}
			outs[i].Result = res.Stats
		}
	} else if *shards > 1 || *funcWarmup > 0 {
		if *metricsOut != "" {
			fmt.Fprintln(os.Stderr, "itpsweep: -metrics-out is not supported with -shards (use cmd/itpsim's sharded mode for stitched window export)")
			os.Exit(2)
		}
		var scfgs []shard.Config
		var flat []harness.Job[*shard.Payload]
		ix := shard.NewIndex()
		for _, v := range vals {
			for _, name := range names {
				pts = append(pts, point{v, name})
				cfg := config.Default()
				cfg.STLBPolicy = *stlbPol
				cfg.L2CPolicy = *l2cPol
				cfg.LLCPolicy = *llcPol
				if err := mutate(&cfg, v); err != nil {
					fmt.Fprintf(os.Stderr, "itpsweep: %s=%g: %v\n", *param, v, err)
					os.Exit(2)
				}
				spec, err := cat.Get(name)
				if err != nil {
					fmt.Fprintln(os.Stderr, "itpsweep:", err)
					os.Exit(2)
				}
				scfg := shard.Config{
					System:         cfg,
					Plan:           shard.Plan{Shards: *shards, Warmup: *warmup, Measure: *measure, FuncWarmup: *funcWarmup},
					BeaconInterval: *beaconEvery,
					Audit:          *auditOn,
				}
				key := fmt.Sprintf("sweep|%s=%g|%s|%s/%s/%s|%d/%d",
					*param, v, name, *stlbPol, *l2cPol, *llcPol, *warmup, *measure)
				js, err := shard.Jobs(scfg, key, shard.Source{Name: name, New: spec.NewStream}, ix)
				if err != nil {
					fmt.Fprintln(os.Stderr, "itpsweep:", err)
					os.Exit(2)
				}
				scfgs = append(scfgs, scfg)
				flat = append(flat, js...)
			}
		}
		totalJobs = len(flat)
		flatOuts, err := harness.RunAll(hopts, flat)
		if flatOuts == nil {
			fmt.Fprintln(os.Stderr, "itpsweep:", err)
			os.Exit(1)
		}
		runErr = err
		outs = make([]harness.Outcome[*stats.Sim], len(pts))
		for i := range pts {
			res, serr := shard.Stitch(scfgs[i], flatOuts[i**shards:(i+1)**shards])
			if serr != nil {
				outs[i].Err = serr
				continue
			}
			outs[i].Result = res.Stats
		}
	} else {
		outs, runErr, totalJobs = runSerialSweep(serialSweep{
			cat: cat, mutate: mutate, attachMetrics: attachMetrics, hopts: hopts,
			param: *param, vals: vals, names: names,
			stlb: *stlbPol, l2c: *l2cPol, llc: *llcPol,
			warmup: *warmup, measure: *measure, cores: *coresN,
			beaconEvery: *beaconEvery, auditOn: *auditOn,
		}, func(v float64, name string) { pts = append(pts, point{v, name}) })
	}
	if outs == nil {
		fmt.Fprintln(os.Stderr, "itpsweep:", runErr)
		os.Exit(1)
	}

	fmt.Printf("sweep %s over %v; policies STLB=%s L2C=%s LLC=%s; %d+%d instr",
		*param, vals, *stlbPol, *l2cPol, *llcPol, *warmup, *measure)
	if *shards > 1 {
		fmt.Printf("; %d shards/point", *shards)
	}
	if *samplePhases > 0 {
		fmt.Printf("; %d sample phases/point (w=%d)", *samplePhases, *sampleWindow)
	}
	if *funcWarmup > 0 {
		fmt.Printf("; functional warmup %d", *funcWarmup)
	}
	fmt.Printf("\n\n%-10s %-10s %8s %9s %9s %9s %9s\n",
		"value", "workload", "IPC", "STLB-MPKI", "walk-lat", "L2C-dt", "itc%")

	failed := 0
	i := 0
	for _, v := range vals {
		ratios := make([]float64, 0, len(names))
		for range names {
			pt, out := pts[i], outs[i]
			i++
			if out.Err != nil {
				failed++
				fmt.Printf("%-10.3g %-10s FAILED: %v\n", pt.value, pt.workload, firstLine(out.Err))
				continue
			}
			s := out.Result
			ti := s.TotalInstructions()
			fmt.Printf("%-10.3g %-10s %8.4f %9.3f %9.1f %9.2f %8.1f%%\n",
				pt.value, pt.workload, s.IPC(), s.STLB.MPKI(ti), s.STLB.AvgMissLatency(),
				s.L2C.BucketMPKI(stats.BDataTrans, ti), 100*s.InstrTransFraction())
			ratios = append(ratios, s.IPC())
		}
		fmt.Printf("%-10.3g %-10s %8.4f\n\n", v, "GEOMEAN", stats.Geomean(ratios))
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "itpsweep: %d/%d jobs failed:\n%v\n", failed, totalJobs, runErr)
		os.Exit(1)
	}
}

// serialSweep carries the grid parameters into runSerialSweep.
type serialSweep struct {
	cat           *workload.Catalog
	mutate        func(*config.SystemConfig, float64) error
	attachMetrics func(m *sim.Machine, job string)
	hopts         harness.Options
	param         string
	vals          []float64
	names         []string
	stlb, l2c     string
	llc           string
	warmup        uint64
	measure       uint64
	cores         int
	beaconEvery   uint64
	auditOn       bool
}

// runSerialSweep is the classic one-job-per-point path.
func runSerialSweep(s serialSweep, addPoint func(v float64, name string)) ([]harness.Outcome[*stats.Sim], error, int) {
	var jobs []harness.Job[*stats.Sim]
	for _, v := range s.vals {
		for _, name := range s.names {
			v, name := v, name
			addPoint(v, name)
			jobs = append(jobs, harness.Job[*stats.Sim]{
				Key: fmt.Sprintf("sweep|%s=%g|%s|%s/%s/%s|c%d|%d/%d",
					s.param, v, name, s.stlb, s.l2c, s.llc, s.cores, s.warmup, s.measure),
				Run: func(jc *harness.JobContext) (*stats.Sim, error) {
					spec, err := s.cat.Get(name)
					if err != nil {
						return nil, harness.Permanent(err)
					}
					cfg := config.Default()
					cfg.STLBPolicy = s.stlb
					cfg.L2CPolicy = s.l2c
					cfg.LLCPolicy = s.llc
					if err := s.mutate(&cfg, v); err != nil {
						return nil, harness.Permanent(err)
					}
					if s.cores > 1 {
						cfg.Cores = s.cores
					}
					m, err := sim.NewMachine(cfg)
					if err != nil {
						return nil, harness.Permanent(err)
					}
					jc.Attach(m)
					if s.beaconEvery > 0 {
						m.EnableBeacons(s.beaconEvery)
					}
					if s.auditOn {
						m.EnableAudit(0)
					}
					s.attachMetrics(m, fmt.Sprintf("%s=%g/%s", s.param, v, name))
					// One stream per core: every core runs its own copy of
					// the point's workload, so the sweep measures the shared
					// hierarchy under homogeneous N-tenant pressure.
					nStreams := m.Cores()
					streams := make([]workload.Stream, nStreams)
					for i := range streams {
						p := workload.Prefetch(spec.NewStream())
						defer p.Close()
						streams[i] = p
					}
					res, err := m.RunWarmup(streams, s.warmup, s.measure)
					if err != nil {
						return nil, err
					}
					return res.Stats, nil
				},
			})
		}
	}
	outs, err := harness.RunAll(s.hopts, jobs)
	return outs, err, len(jobs)
}

// firstLine truncates multi-line errors (panic stacks, snapshots) for the
// table; the full detail went to stderr via the harness log.
func firstLine(err error) string {
	s := err.Error()
	if idx := strings.IndexByte(s, '\n'); idx >= 0 {
		s = s[:idx] + " ..."
	}
	return s
}

func paramNames() string {
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	// stable order for help text
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	return strings.Join(names, ", ")
}
