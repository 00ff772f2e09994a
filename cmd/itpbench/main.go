// Command itpbench regenerates the paper's tables and figures. Each
// experiment sweeps the relevant workloads and configurations and prints
// the series the paper plots (see DESIGN.md's per-experiment index).
//
// Examples:
//
//	itpbench -fig fig8a
//	itpbench -fig all -scale quick
//	itpbench -fig fig13 -server 8 -measure 2000000
//	itpbench -fig mc1 -cores 16 -scale quick
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/experiments"
	"itpsim/internal/plot"
	"itpsim/internal/run"
)

// writeSVG renders one experiment as a grouped bar chart. Per-workload
// rows are kept; figures whose interesting number is the aggregate still
// read fine because the geomean appears as its own group.
func writeSVG(dir, id string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rows := make([]plot.RowData, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, plot.RowData{Series: r.Series, Label: r.Label, Value: r.Value})
	}
	chart := plot.FromRows(res.Title, res.YLabel, rows)
	f, err := os.Create(filepath.Join(dir, id+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return chart.Render(f)
}

// writeCSV saves one experiment's rows under dir.
func writeCSV(dir, id string, res experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.WriteCSV(f, res)
}

func main() {
	var (
		fig     = flag.String("fig", "", "experiment id (fig1 fig2 fig3 fig4 fig8a fig8b fig9 fig10 fig11 fig12 fig13 fig14 tab1 tab2 mc1) or 'all'")
		scale   = flag.String("scale", "default", "preset scale: quick or default")
		server  = flag.Int("server", 0, "override: number of server workloads")
		spec    = flag.Int("spec", 0, "override: number of SPEC-like workloads")
		pairs   = flag.Int("pairs", 0, "override: SMT pairs per category")
		warmup  = flag.Uint64("warmup", 0, "override: warmup instructions per thread")
		measure = flag.Uint64("measure", 0, "override: measured instructions per thread")
		cores   = flag.Int("cores", 0, "CMP width for the multi-core co-location study (mc1); 0 = its default of 4")
		csvDir  = flag.String("csv", "", "also write <dir>/<fig>.csv for each experiment")
		svgDir  = flag.String("svg", "", "also render <dir>/<fig>.svg bar charts")
	)
	var (
		sup                      run.Supervision
		shards, phases           int
		sampleWindow, funcWarmup uint64
	)
	sup.Register(flag.CommandLine)
	run.RegisterSplit(flag.CommandLine, &shards, &phases, &sampleWindow, &funcWarmup)
	flag.Parse()

	if *fig == "" {
		run.Exit("itpbench", 2, fmt.Errorf("-fig required; available: %s, all", strings.Join(experiments.All(), " ")))
	}

	o := experiments.Defaults()
	if *scale == "quick" {
		o = experiments.Quick()
	}
	if *server > 0 {
		o.ServerWorkloads = *server
	}
	if *spec > 0 {
		o.SpecWorkloads = *spec
	}
	if *pairs > 0 {
		o.SMTPairsPerCategory = *pairs
	}
	if *warmup > 0 {
		o.Warmup = *warmup
	}
	if *measure > 0 {
		o.Measure = *measure
	}
	if *cores > 0 {
		o.Cores = *cores
	}
	o.Shards, o.SamplePhases, o.SampleWindow, o.FuncWarmup = shards, phases, sampleWindow, funcWarmup
	o.Supervision, o.Logf = sup, run.Stderr
	// Every single-workload simulation takes the split; reject a bad one
	// before any experiment starts.
	probe := run.Spec{Tenants: []string{"srv_000"}, System: config.Default(), Warmup: o.Warmup, Measure: o.Measure,
		Shards: o.Shards, Phases: o.SamplePhases, Window: o.SampleWindow, FuncWarmup: o.FuncWarmup}
	if err := probe.Validate(); err != nil {
		run.Exit("itpbench", 2, err)
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = experiments.All()
	}
	for _, id := range ids {
		//itp:wallclock — progress reporting only; never feeds the simulation
		start := time.Now()
		res, err := experiments.Run(id, o)
		if err != nil {
			run.Exit("itpbench", 1, fmt.Errorf("%s: %w", id, err))
		}
		experiments.Print(os.Stdout, res)
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, res); err != nil {
				run.Exit("itpbench", 1, fmt.Errorf("csv: %w", err))
			}
		}
		if *svgDir != "" {
			if err := writeSVG(*svgDir, id, res); err != nil {
				run.Exit("itpbench", 1, fmt.Errorf("svg: %w", err))
			}
		}
		//itp:wallclock — progress reporting only; never feeds the simulation
		fmt.Printf("  (%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
}
