// Package run is the one description and the one dispatcher of a
// simulation run. A Spec names what to simulate — tenants, machine,
// instruction budget and how the run splits (whole, K shards, or K
// sampled phases); Validate holds every rule about which combinations
// make sense; Key is the single identity the checkpoint journal and the
// in-process memo share; and Runner.Execute turns a batch of specs into
// supervised harness jobs, runs them in one harness.RunAll and stitches
// split runs back into one record each. cmd/itpsim, cmd/itpsweep and the
// experiments behind cmd/itpbench are flag parsers and report printers
// around it. DESIGN.md §7 ("Run spec") tabulates the rules.
package run

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"

	"itpsim/internal/config"
	"itpsim/internal/metrics"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
)

// Spec is one run's identity.
type Spec struct {
	// Tenants are catalogue workload names: one for a single-thread run,
	// two for an SMT pair (System.SMT), or any number cycled over
	// System.Cores > 1. Empty when Trace is set.
	Tenants []string
	// Trace is a recorded trace file to replay instead of tenants.
	Trace string
	// System is the simulated machine.
	System config.SystemConfig
	// Warmup and Measure are instructions per hardware thread.
	Warmup, Measure uint64

	// Shards > 1 splits the measured region into that many parallel
	// segments (internal/shard). Phases > 0 phase-samples the run instead
	// (internal/sample) with Window-instruction classification intervals.
	// FuncWarmup replays that prefix of each segment's warmup
	// functionally; alone it runs the whole region as one such segment.
	Shards     int
	Phases     int
	Window     uint64
	FuncWarmup uint64

	// BeaconInterval arms state beacons every N retired instructions and
	// Audit the structural invariant auditor. Neither changes a result,
	// so neither is part of Key.
	BeaconInterval uint64
	Audit          bool
}

// Split reports whether the run executes as segment jobs rather than
// one whole-run job.
func (s Spec) Split() bool { return s.Shards > 1 || s.Phases > 0 || s.FuncWarmup > 0 }

// Validate returns the first run-mode rule the spec breaks, worded for
// the command line. An invalid machine is not a mode error: its run
// fails when sim.NewMachine rejects the config, so a sweep keeps the
// points that are valid.
func (s Spec) Validate() error {
	cores := s.System.Cores
	switch {
	case s.Trace != "" && len(s.Tenants) > 0:
		return errors.New("a run replays either a trace or catalogue workloads, not both")
	case s.Trace != "" && cores > 1:
		return errors.New("-cores needs catalogue workloads; recorded traces are single-stream")
	case s.Trace != "" && s.System.SMT:
		return errors.New("-smt needs catalogue workloads; recorded traces are single-stream")
	case s.Trace == "" && len(s.Tenants) == 0:
		return errors.New("no workload to run")
	case s.System.SMT && cores > 1:
		return fmt.Errorf("-smt is a single-core mode; it cannot combine with -cores %d", cores)
	case s.System.SMT && len(s.Tenants) != 2:
		return errors.New("-smt requires a single -workload")
	case !s.System.SMT && cores <= 1 && len(s.Tenants) > 1:
		return fmt.Errorf("a single-core run takes one workload, got %d (use -cores for a CMP)", len(s.Tenants))
	}
	if !s.Split() {
		return nil
	}
	mode := "-shards"
	switch {
	case s.Phases > 0:
		mode = "-sample-phases"
	case s.Shards <= 1:
		mode = "-func-warmup"
	}
	switch {
	case s.Phases > 0 && s.Shards > 1:
		return errors.New("-sample-phases and -shards are alternative parallel modes; pick one")
	case cores > 1:
		return fmt.Errorf("%s splits one stream; multi-core runs (-cores %d) must run whole", mode, cores)
	case s.Trace != "" || s.System.SMT:
		return fmt.Errorf("%s splits one catalogue workload (no -trace or -smt)", mode)
	case s.FuncWarmup > 0 && s.FuncWarmup >= s.Warmup:
		return fmt.Errorf("-func-warmup %d must leave a detailed warmup suffix (-warmup %d)", s.FuncWarmup, s.Warmup)
	case s.Phases > 0:
		return s.sampleConfig().Validate()
	}
	return s.shardPlan().Validate()
}

// Key is the run's checkpoint and memo identity: a readable
// tenants|stlb/l2c/llc prefix and a hash of the normalised spec, so two
// specs share a key exactly when they simulate the same thing. Segment
// jobs of a split run append their own suffix.
func (s Spec) Key() string {
	n := s
	n.BeaconInterval, n.Audit = 0, false
	if n.System.Cores == 1 {
		n.System.Cores = 0
	}
	if n.Shards < 1 {
		n.Shards = 1
	}
	if n.Phases <= 0 {
		n.Phases, n.Window = 0, 0
	}
	data, err := json.Marshal(n)
	if err != nil {
		panic(err) // every Spec field is plain data
	}
	h := fnv.New64a()
	h.Write(data)
	name := strings.Join(s.Tenants, "+")
	if s.Trace != "" {
		name = "trace:" + s.Trace
	}
	sys := s.System
	return fmt.Sprintf("%s|%s/%s/%s|%016x", name, sys.STLBPolicy, sys.L2CPolicy, sys.LLCPolicy, h.Sum64())
}

// name labels the spec's run: its first tenant, or the trace path.
func (s Spec) name() string {
	if s.Trace != "" {
		return s.Trace
	}
	return s.Tenants[0]
}

// shardPlan is the tiling of a sharded or functionally warmed spec.
func (s Spec) shardPlan() shard.Plan {
	return shard.Plan{Shards: max(s.Shards, 1), Warmup: s.Warmup, Measure: s.Measure, FuncWarmup: s.FuncWarmup}
}

// segmentConfig is the machine every segment of a split spec runs;
// window > 0 also samples each segment's metrics window series.
func (s Spec) segmentConfig(window uint64) shard.Config {
	return shard.Config{System: s.System, BeaconInterval: s.BeaconInterval, Audit: s.Audit, MetricsWindow: window}
}

// sampleConfig maps a phase-sampled spec onto the sampling engine.
func (s Spec) sampleConfig() sample.Config {
	c := sample.Config{
		System:         s.System,
		Phases:         s.Phases,
		Window:         s.Window,
		Warmup:         s.Warmup,
		Measure:        s.Measure,
		BeaconInterval: s.BeaconInterval,
		Audit:          s.Audit,
	}
	if s.FuncWarmup > 0 {
		c.DetailWarmup = s.Warmup - s.FuncWarmup
	}
	return c
}

// MetricsWindow resolves a -metrics-window setting for sys: 0 aligns the
// sampler with the adaptive xPTP controller, so each exported window
// carries the decision that exact window produced, and falls back to the
// paper's 1000-instruction window when there is no controller.
func MetricsWindow(sys config.SystemConfig, window uint64) uint64 {
	switch {
	case window != 0:
		return window
	case sys.L2CPolicy == "xptp" && sys.XPTP.WindowInstr != 0:
		return sys.XPTP.WindowInstr
	}
	return metrics.DefaultWindow
}
