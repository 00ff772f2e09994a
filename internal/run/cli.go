package run

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof server
	"os"
	"runtime"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
)

// Supervision is the harness knobs every run tool exposes.
type Supervision struct {
	Parallel         int
	Retries          int
	JobTimeout       time.Duration
	Checkpoint       string
	WatchdogInterval time.Duration
	WatchdogSamples  int
}

// Register binds -parallel -retries -job-timeout -checkpoint
// -watchdog-interval -watchdog-samples.
func (s *Supervision) Register(fs *flag.FlagSet) {
	fs.IntVar(&s.Parallel, "parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.IntVar(&s.Retries, "retries", 0, "retry attempts for transiently failed jobs")
	fs.DurationVar(&s.JobTimeout, "job-timeout", 0, "per-job wall-clock deadline (0 = none)")
	fs.StringVar(&s.Checkpoint, "checkpoint", "", "JSON-lines checkpoint journal; completed jobs are skipped on re-run")
	fs.DurationVar(&s.WatchdogInterval, "watchdog-interval", 5*time.Second, "forward-progress sampling period (0 disables the watchdog)")
	fs.IntVar(&s.WatchdogSamples, "watchdog-samples", 6, "consecutive no-progress samples before a run is killed")
}

// Options builds the supervisor's options; parallelism 0 means
// GOMAXPROCS. seed seeds the retry-backoff jitter; logf receives
// supervision events (nil discards them).
func (s Supervision) Options(seed uint64, logf func(string, ...any)) harness.Options {
	if s.Parallel <= 0 {
		s.Parallel = runtime.GOMAXPROCS(0)
	}
	return harness.Options{
		Parallelism:      s.Parallel,
		Retries:          s.Retries,
		JobTimeout:       s.JobTimeout,
		WatchdogInterval: s.WatchdogInterval,
		WatchdogSamples:  s.WatchdogSamples,
		Checkpoint:       s.Checkpoint,
		Seed:             seed,
		Logf:             logf,
	}
}

// SampleWindow is the default phase-classification interval in retired
// instructions.
const SampleWindow = 50_000

// Stderr logs supervision events one per line on standard error.
func Stderr(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// Flags is the command line itpsim and itpsweep share: supervision, the
// run split, robustness layers and observability.
type Flags struct {
	Supervision
	Shards, Phases     int
	Window, FuncWarmup uint64

	BeaconInterval uint64
	Audit          bool
	MetricsOut     string
	MetricsWindow  uint64
	Pprof          string
}

// Register binds every shared flag on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.Supervision.Register(fs)
	RegisterSplit(fs, &f.Shards, &f.Phases, &f.Window, &f.FuncWarmup)
	fs.Uint64Var(&f.BeaconInterval, "beacon-interval", 0, "emit deterministic state beacons every N retired instructions (0 disables); chains print with the report and are journaled with the checkpoint")
	fs.BoolVar(&f.Audit, "audit", false, "run the structural invariant auditor during simulation; violations fail the run with a diagnosis")
	fs.StringVar(&f.MetricsOut, "metrics-out", "", "write the per-window metrics series (JSON lines, one file for all runs) to this file")
	fs.Uint64Var(&f.MetricsWindow, "metrics-window", 0, "metrics sampling window in retired instructions (0 = the run's adaptive controller window when one exists, else 1000)")
	fs.StringVar(&f.Pprof, "pprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")
}

// RegisterSplit binds -shards -sample-phases -sample-window -func-warmup.
func RegisterSplit(fs *flag.FlagSet, shards, phases *int, window, funcWarmup *uint64) {
	fs.IntVar(shards, "shards", 1, "split each single-stream run into this many parallel warmup+measure segments (1 = serial; error bounds in DESIGN.md §12)")
	fs.IntVar(phases, "sample-phases", 0, "phase-sample each single-stream run: K phases from a shared LRU-baseline profile, one representative interval each (0 = off; error bounds in DESIGN.md §14)")
	fs.Uint64Var(window, "sample-window", SampleWindow, "phase-classification interval in retired instructions; -warmup and -n must be multiples of it when -sample-phases > 1")
	fs.Uint64Var(funcWarmup, "func-warmup", 0, "replay this prefix of each segment's warmup functionally (no pipeline); must leave a detailed warmup suffix")
}

// Apply copies the split and robustness flags into s.
func (f *Flags) Apply(s *Spec) {
	s.Shards, s.Phases, s.Window, s.FuncWarmup = f.Shards, f.Phases, f.Window, f.FuncWarmup
	s.BeaconInterval, s.Audit = f.BeaconInterval, f.Audit
}

// Check validates specs for the command line: the first broken rule
// prints one "<tool>: " line and exits with status 2.
func (f *Flags) Check(tool string, specs []Spec) {
	for i := range specs {
		err := specs[i].Validate()
		if err == nil && f.MetricsOut != "" && specs[i].Phases > 0 {
			err = errors.New("-metrics-out is not supported with -sample-phases (representatives carry no stitched window series)")
		}
		if err != nil {
			Exit(tool, 2, err)
		}
	}
}

// Observe starts the -pprof server and opens the -metrics-out export,
// writing its run manifest for sys. wrap, when set, wraps the export
// file (fault drills). Close the returned export after the batch and
// check its error: window writes are not checked as they happen.
func (f *Flags) Observe(tool string, sys config.SystemConfig, workloads []string, extra map[string]string, wrap func(io.Writer) io.Writer) (*Arm, io.Closer, error) {
	arm := &Arm{Tool: tool, Window: f.MetricsWindow, Expvar: f.Pprof != ""}
	if f.Pprof != "" {
		//itp:daemon pprof/expvar debug server lives for the whole process by design
		go func() {
			if err := http.ListenAndServe(f.Pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: pprof server: %v\n", tool, err)
			}
		}()
	}
	if f.MetricsOut == "" {
		return arm, io.NopCloser(nil), nil
	}
	file, err := os.Create(f.MetricsOut)
	if err != nil {
		return nil, nil, err
	}
	var w io.Writer = file
	if wrap != nil {
		w = wrap(file)
	}
	arm.Export = metrics.NewJSONL(w)
	cfgJSON, err := sys.MarshalPretty()
	if err == nil {
		err = arm.Export.Manifest(metrics.Manifest{
			Tool: tool,
			Git:  metrics.GitDescribe(),
			//itp:wallclock — manifest timestamp only; never feeds the simulation
			Time:        time.Now().UTC().Format(time.RFC3339),
			ConfigHash:  metrics.ConfigHash(cfgJSON),
			WindowInstr: MetricsWindow(sys, f.MetricsWindow),
			Policies:    map[string]string{"stlb": sys.STLBPolicy, "l2c": sys.L2CPolicy, "llc": sys.LLCPolicy},
			Workloads:   workloads,
			Extra:       extra,
		})
	}
	if err != nil {
		file.Close()
		return nil, nil, err
	}
	return arm, file, nil
}

// Exit prints err as one "<tool>: " line and exits with status code:
// 2 for a rejected command line, 1 for a failed run.
func Exit(tool string, code int, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(code)
}
