// Package experiments regenerates every table and figure of the paper's
// evaluation (plus the motivation studies): each Fig* function sweeps the
// relevant workloads and configurations, runs the simulator, and returns
// a Result whose rows mirror the series the paper plots. The experiment
// ids match DESIGN.md's per-experiment index and cmd/itpbench's -fig flag.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/run"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// Options scale an experiment run. The paper simulates 120 single-thread
// workloads and 75 pairs for 50M+100M instructions each on a cluster; the
// defaults here reproduce the same sweeps at laptop scale.
type Options struct {
	// ServerWorkloads / SpecWorkloads set how many catalogue entries of
	// each suite participate.
	ServerWorkloads int
	SpecWorkloads   int
	// SMTPairsPerCategory sets pairs per co-location category
	// (intense/medium/relaxed).
	SMTPairsPerCategory int
	// Warmup/Measure are instructions per hardware thread.
	Warmup  uint64
	Measure uint64
	// Cores sets the CMP width of the multi-core co-location study
	// ("mc1"): N cores with private L1s/ITLB/DTLB contending on the
	// shared STLB/L2C/LLC/walker/DRAM, one tenant workload per core.
	// 0 selects the study's default width (4); the paper-style sweep
	// runs it at 4, 16, and 64. Other experiments ignore it.
	Cores int
	// Shards > 1 splits every single-workload simulation into that many
	// parallel warmup+measure segments (internal/shard), stitched back
	// into one stats record per job; SMT pair simulations always run
	// whole because sharding is defined over a single stream. The
	// per-shard warmup approximation shifts metrics within the bounds
	// documented in DESIGN.md §12.
	Shards int
	// SamplePhases > 0 phase-samples every single-workload simulation
	// (internal/sample): an LRU-baseline profiling pre-pass classifies
	// the measured region into K phases and only one representative
	// interval per phase simulates in detail, with full-run statistics
	// reconstructed as the occupancy-weighted sum. One profile serves
	// every policy combination that shares a (workload, machine
	// geometry), which is where the speedup over serial sweeping comes
	// from. SMT pairs and multi-core jobs run whole. Error bounds are in
	// DESIGN.md §14. Mutually exclusive with Shards > 1.
	SamplePhases int
	// SampleWindow is the phase-classification interval in retired
	// instructions (Defaults and Quick set run.SampleWindow); Warmup and
	// Measure must be multiples of it when SamplePhases > 1.
	SampleWindow uint64
	// FuncWarmup replays this prefix of each segment's warmup
	// functionally (TLB/cache/predictor state only, no pipeline); it must
	// leave a detailed warmup suffix. Applies to the Shards and
	// SamplePhases paths.
	FuncWarmup uint64

	// Supervision is the fault tolerance every sweep's jobs run under
	// (internal/harness): Parallel bounds concurrent simulations
	// (0 = GOMAXPROCS); Retries re-attempts transiently failed jobs with
	// capped exponential backoff; JobTimeout is the per-simulation
	// wall-clock deadline (0 = none). WatchdogInterval/WatchdogSamples arm
	// the forward-progress watchdog: a simulation that retires no
	// instruction for that many consecutive samples is killed with a
	// diagnostic snapshot. Checkpoint names a JSON-lines journal of
	// completed jobs (keyed like the in-process memo) so an interrupted
	// campaign resumes without re-running finished work.
	run.Supervision
	// Logf receives supervision events (retries, kills, resumes);
	// nil discards them.
	Logf func(format string, args ...any)
}

// Defaults returns laptop-scale defaults.
func Defaults() Options {
	return Options{
		ServerWorkloads:     12,
		SpecWorkloads:       8,
		SMTPairsPerCategory: 2,
		Warmup:              1_000_000,
		Measure:             3_000_000,
		SampleWindow:        run.SampleWindow,
		// A healthy simulation never stops retiring, so a generous
		// no-progress watchdog (30s of zero retires) is safe to arm by
		// default and turns a livelocked job into one structured failure
		// instead of a hung campaign.
		Supervision: run.Supervision{WatchdogInterval: 5 * time.Second, WatchdogSamples: 6},
	}
}

// Quick returns a fast smoke-scale configuration (CI, examples).
func Quick() Options {
	return Options{
		ServerWorkloads:     4,
		SpecWorkloads:       2,
		SMTPairsPerCategory: 1,
		Warmup:              200_000,
		Measure:             400_000,
		SampleWindow:        run.SampleWindow,
		Supervision:         run.Supervision{WatchdogInterval: 5 * time.Second, WatchdogSamples: 6},
	}
}

// Row is one data point of a figure: a series (policy or configuration),
// a label (workload, pair, or x-axis point), and the value the paper
// plots, with any supporting metrics.
type Row struct {
	Series string
	Label  string
	Value  float64
	Extra  map[string]float64
}

// Result is one regenerated figure or table.
type Result struct {
	Figure string
	Title  string
	YLabel string
	Rows   []Row
	Notes  []string
}

// Combo names one policy combination of Table 2.
type Combo struct {
	Name string
	STLB string
	L2C  string
	LLC  string
}

// PolicyTable returns the Table 2 policy/structure matrix.
func PolicyTable() []Combo {
	return []Combo{
		{Name: "TDRRIP", STLB: "lru", L2C: "tdrrip", LLC: "lru"},
		{Name: "PTP", STLB: "lru", L2C: "ptp", LLC: "lru"},
		{Name: "CHiRP", STLB: "chirp", L2C: "lru", LLC: "lru"},
		{Name: "CHiRP+TDRRIP", STLB: "chirp", L2C: "tdrrip", LLC: "lru"},
		{Name: "CHiRP+PTP", STLB: "chirp", L2C: "ptp", LLC: "lru"},
		{Name: "iTP", STLB: "itp", L2C: "lru", LLC: "lru"},
		{Name: "iTP+TDRRIP", STLB: "itp", L2C: "tdrrip", LLC: "lru"},
		{Name: "iTP+PTP", STLB: "itp", L2C: "ptp", LLC: "lru"},
		{Name: "iTP+xPTP", STLB: "itp", L2C: "xptp", LLC: "lru"},
	}
}

// apply writes a combo into a config.
func (c Combo) apply(cfg *config.SystemConfig) {
	cfg.STLBPolicy = c.STLB
	cfg.L2CPolicy = c.L2C
	cfg.LLCPolicy = c.LLC
}

// runner executes one experiment's simulations: run.Runner supplies the
// supervision, the split engines and the memo, so shared baselines are
// only simulated once.
type runner struct {
	o Options
	*run.Runner
}

func newRunner(o Options) *runner {
	return &runner{o: o, Runner: run.NewRunner(workload.NewCatalog(120, 20))}
}

// serverSet returns the participating server workload names.
func (r *runner) serverSet() []string {
	names := r.Catalog.ServerNames()
	if r.o.ServerWorkloads < len(names) {
		names = names[:r.o.ServerWorkloads]
	}
	return names
}

// specSet returns the participating SPEC-like workload names.
func (r *runner) specSet() []string {
	names := r.Catalog.SpecNames()
	if r.o.SpecWorkloads < len(names) {
		names = names[:r.o.SpecWorkloads]
	}
	return names
}

// pairs returns the SMT co-location pairs.
func (r *runner) pairs() []workload.Pair {
	return r.Catalog.SMTPairs(r.o.SMTPairsPerCategory)
}

// units returns the tenant sets of a thread mode: each server workload
// alone, or each SMT pair.
func (r *runner) units(smt bool) [][]string {
	if !smt {
		return solos(r.serverSet())
	}
	var units [][]string
	for _, p := range r.pairs() {
		units = append(units, []string{p.A, p.B})
	}
	return units
}

// solos wraps each workload name as a one-tenant set.
func solos(names []string) [][]string {
	units := make([][]string, len(names))
	for i, n := range names {
		units[i] = []string{n}
	}
	return units
}

// spec describes one simulation at the experiment's scale: two tenants
// on a single core are an SMT pair, and only single-stream runs take the
// Options split (pairs and multi-core runs always run whole).
func (r *runner) spec(tenants []string, cfg config.SystemConfig) run.Spec {
	s := run.Spec{Tenants: tenants, System: cfg, Warmup: r.o.Warmup, Measure: r.o.Measure}
	switch {
	case cfg.Cores > 1:
	case len(tenants) == 2:
		s.System.SMT = true
	default:
		s.Shards, s.Phases, s.Window, s.FuncWarmup = r.o.Shards, r.o.SamplePhases, r.o.SampleWindow, r.o.FuncWarmup
	}
	return s
}

// specs returns one spec per tenant set under cfg.
func (r *runner) specs(units [][]string, cfg config.SystemConfig) []run.Spec {
	specs := make([]run.Spec, len(units))
	for i, u := range units {
		specs[i] = r.spec(u, cfg)
	}
	return specs
}

// runAll executes specs through the harness supervisor, preserving
// order. Unlike a fail-fast batch, every healthy run's result is returned
// even when others fail: failures come back joined into one error with
// the corresponding slots left nil, so callers can keep partial sweeps
// and report exactly which runs died.
func (r *runner) runAll(specs []run.Spec) ([]*stats.Sim, error) {
	outs, err := r.Execute(r.o.Supervision.Options(0, r.o.Logf), specs, nil)
	if outs == nil {
		return nil, err
	}
	sims := make([]*stats.Sim, len(outs))
	for i := range outs {
		sims[i] = outs[i].Stats
	}
	return sims, err
}

// speedup returns the relative IPC improvement in percent.
func speedup(base, with *stats.Sim) float64 {
	if base.IPC() == 0 {
		return 0
	}
	return 100 * (with.IPC()/base.IPC() - 1)
}

// geomeanSpeedup aggregates per-workload IPC ratios geometrically, like
// the paper's geomean speedups.
func geomeanSpeedup(bases, withs []*stats.Sim) float64 {
	ratios := make([]float64, 0, len(bases))
	for i := range bases {
		if bases[i].IPC() > 0 {
			ratios = append(ratios, withs[i].IPC()/bases[i].IPC())
		}
	}
	return 100 * (stats.Geomean(ratios) - 1)
}

// All lists the available experiment ids.
func All() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the named experiment.
func Run(id string, o Options) (Result, error) {
	fn, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(All(), ", "))
	}
	return fn(o)
}

var registry = map[string]func(Options) (Result, error){
	"fig1":  Fig1,
	"fig2":  Fig2,
	"fig3":  Fig3,
	"fig4":  Fig4,
	"fig8a": Fig8a,
	"fig8b": Fig8b,
	"fig9":  Fig9,
	"fig10": Fig10,
	"fig11": Fig11,
	"fig12": Fig12,
	"fig13": Fig13,
	"fig14": Fig14,
	"tab1":  Tab1,
	"tab2":  Tab2,
	"tab3":  Tab3,
	"ext1":  Ext1,
	"mc1":   MC1,
}

// WriteCSV renders a result as CSV (figure,series,label,value) so plots
// can be rebuilt with any tooling.
func WriteCSV(w io.Writer, res Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"figure", "series", "label", "value"}); err != nil {
		return err
	}
	for _, r := range res.Rows {
		if err := cw.Write([]string{res.Figure, r.Series, r.Label, strconv.FormatFloat(r.Value, 'f', 6, 64)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Print renders a result as an aligned text table.
func Print(w io.Writer, res Result) {
	fmt.Fprintf(w, "== %s: %s\n", res.Figure, res.Title)
	if res.YLabel != "" {
		fmt.Fprintf(w, "   metric: %s\n", res.YLabel)
	}
	seriesW, labelW := 6, 5
	for _, r := range res.Rows {
		if len(r.Series) > seriesW {
			seriesW = len(r.Series)
		}
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	for _, r := range res.Rows {
		fmt.Fprintf(w, "  %-*s  %-*s  %10.4f", seriesW, r.Series, labelW, r.Label, r.Value)
		if len(r.Extra) > 0 {
			keys := make([]string, 0, len(r.Extra))
			for k := range r.Extra {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(w, "  %s=%.4f", k, r.Extra[k])
			}
		}
		fmt.Fprintln(w)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}
