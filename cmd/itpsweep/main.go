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
	"os"
	"strconv"
	"strings"

	"itpsim/internal/config"
	"itpsim/internal/run"
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
	)
	var f run.Flags
	f.Register(flag.CommandLine)
	flag.Parse()

	mutate, ok := params[*param]
	if !ok {
		run.Exit("itpsweep", 2, fmt.Errorf("-param must be one of %s", paramNames()))
	}
	var vals []float64
	for _, s := range strings.Split(*values, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			run.Exit("itpsweep", 2, fmt.Errorf("bad value %q: %v", s, err))
		}
		vals = append(vals, v)
	}
	var names []string
	for _, n := range strings.Split(*workloads, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}

	// One spec per (value, workload) point, value-major.
	base := config.Default()
	base.STLBPolicy, base.L2CPolicy, base.LLCPolicy = *stlbPol, *l2cPol, *llcPol
	var specs []run.Spec
	var labels []string
	for _, v := range vals {
		cfg := base
		if err := mutate(&cfg, v); err != nil {
			run.Exit("itpsweep", 2, fmt.Errorf("%s=%g: %v", *param, v, err))
		}
		if *coresN > 1 {
			cfg.Cores = *coresN
		}
		for _, name := range names {
			s := run.Spec{Tenants: []string{name}, System: cfg, Warmup: *warmup, Measure: *measure}
			f.Apply(&s)
			specs = append(specs, s)
			labels = append(labels, fmt.Sprintf("%s=%g/%s", *param, v, name))
		}
	}
	f.Check("itpsweep", specs)

	// Observability: one shared JSONL series for the whole grid (lines are
	// tagged with the point label) and an optional pprof/expvar server.
	arm, export, err := f.Observe("itpsweep", base, names, map[string]string{"param": *param, "values": *values}, nil)
	if err != nil {
		run.Exit("itpsweep", 1, err)
	}
	arm.Label = func(i int) string { return labels[i] }
	outs, runErr := run.NewRunner(workload.NewCatalog(120, 20)).Execute(f.Options(0, run.Stderr), specs, arm)
	// A failed export fails the sweep once its table is printed.
	exportErr := export.Close()
	if outs == nil {
		run.Exit("itpsweep", 1, runErr)
	}

	fmt.Printf("sweep %s over %v; policies STLB=%s L2C=%s LLC=%s; %d+%d instr",
		*param, vals, *stlbPol, *l2cPol, *llcPol, *warmup, *measure)
	if f.Shards > 1 {
		fmt.Printf("; %d shards/point", f.Shards)
	}
	if f.Phases > 0 {
		fmt.Printf("; %d sample phases/point (w=%d)", f.Phases, f.Window)
	}
	if f.FuncWarmup > 0 {
		fmt.Printf("; functional warmup %d", f.FuncWarmup)
	}
	fmt.Printf("\n\n%-10s %-10s %8s %9s %9s %9s %9s\n",
		"value", "workload", "IPC", "STLB-MPKI", "walk-lat", "L2C-dt", "itc%")

	failed := 0
	for vi, v := range vals {
		ratios := make([]float64, 0, len(names))
		for ni, name := range names {
			out := outs[vi*len(names)+ni]
			if out.Err != nil {
				failed++
				fmt.Printf("%-10.3g %-10s FAILED: %v\n", v, name, firstLine(out.Err))
				continue
			}
			s := out.Stats
			ti := s.TotalInstructions()
			fmt.Printf("%-10.3g %-10s %8.4f %9.3f %9.1f %9.2f %8.1f%%\n",
				v, name, s.IPC(), s.STLB.MPKI(ti), s.STLB.AvgMissLatency(),
				s.L2C.BucketMPKI(stats.BDataTrans, ti), 100*s.InstrTransFraction())
			ratios = append(ratios, s.IPC())
		}
		fmt.Printf("%-10.3g %-10s %8.4f\n\n", v, "GEOMEAN", stats.Geomean(ratios))
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "itpsweep: %d/%d points failed:\n%v\n", failed, len(specs), runErr)
		os.Exit(1)
	}
	if exportErr != nil {
		run.Exit("itpsweep", 1, fmt.Errorf("metrics export: %w", exportErr))
	}
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
