package sample

import (
	"reflect"
	"strings"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/metrics"
	"itpsim/internal/shard"
)

func testConfig(k int) Config {
	return Config{
		System:  config.Default(),
		Phases:  k,
		Window:  1000,
		Warmup:  2000,
		Measure: 8000,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig(4).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	cases := []struct {
		mut  func(*Config)
		want string
	}{
		{func(c *Config) { c.Phases = 0 }, "phases"},
		{func(c *Config) { c.Measure = 0 }, "nothing to measure"},
		{func(c *Config) { c.System.Cores = 2 }, "multi-core"},
		{func(c *Config) { c.Window = 0 }, "window"},
		{func(c *Config) { c.Measure = 8500 }, "not a multiple"},
		{func(c *Config) { c.Warmup = 2500 }, "not a multiple"},
	}
	for _, tc := range cases {
		cfg := testConfig(4)
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("mutated config accepted or wrong error: %v (want %q)", err, tc.want)
		}
	}
	// K=1 is exempt from interval alignment: it has no intervals.
	one := testConfig(1)
	one.Window = 0
	one.Warmup = 2500
	if err := one.Validate(); err != nil {
		t.Errorf("K=1 config rejected: %v", err)
	}
}

// profileFor fabricates a profile window series with the given per-window
// IPCs over testConfig geometry (warmup windows included, as a real
// profile would have them).
func profileFor(cfg Config, ipc []float64) []metrics.WindowRecord {
	var recs []metrics.WindowRecord
	total := cfg.Warmup + cfg.Measure
	for r, i := cfg.Window, 0; r <= total; r += cfg.Window {
		rec := metrics.WindowRecord{
			Retired: arch.Instr(r),
			Instr:   arch.Instr(cfg.Window),
		}
		if r > cfg.Warmup {
			rec.IPC = ipc[i]
			// Give the miss features the same phase structure as the IPC.
			rec.Counters.L2CDemandMiss = uint64(1000 * ipc[i])
			i++
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestBuildPlanPhases: a profile with two clearly distinct phases yields
// a plan whose representatives come one from each phase, with weights
// equal to the phase sizes and totalling the interval count.
func TestBuildPlanPhases(t *testing.T) {
	cfg := testConfig(2)
	// Intervals 0-3 fast phase, 4-7 slow phase.
	plan, err := BuildPlan(cfg, profileFor(cfg, []float64{2, 2, 2, 2, 0.5, 0.5, 0.5, 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reps) != 2 {
		t.Fatalf("got %d representatives, want 2: %+v", len(plan.Reps), plan.Reps)
	}
	if plan.Reps[0].Window >= 4 || plan.Reps[1].Window < 4 {
		t.Errorf("representatives %+v do not come one from each phase", plan.Reps)
	}
	if plan.Reps[0].Weight != 4 || plan.Reps[1].Weight != 4 {
		t.Errorf("weights %+v, want 4 and 4", plan.Reps)
	}
	if plan.Reps[0].Window >= plan.Reps[1].Window {
		t.Errorf("representatives not in stream order: %+v", plan.Reps)
	}
}

// TestBuildPlanDeterministic: planning is a pure function of (config,
// profile).
func TestBuildPlanDeterministic(t *testing.T) {
	cfg := testConfig(3)
	ipc := []float64{2, 1.9, 0.5, 0.55, 1.2, 1.25, 2.1, 0.5}
	a, err := BuildPlan(cfg, profileFor(cfg, ipc))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPlan(cfg, profileFor(cfg, ipc))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same profile produced different plans:\n%+v\n%+v", a.Reps, b.Reps)
	}
}

// TestBuildPlanClampsK: more phases than intervals clamps to one
// representative per interval, each with weight 1.
func TestBuildPlanClampsK(t *testing.T) {
	cfg := testConfig(64)
	plan, err := BuildPlan(cfg, profileFor(cfg, []float64{2, 1.8, 1.6, 1.4, 1.2, 1, 0.8, 0.6}))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Reps) != 8 {
		t.Fatalf("got %d representatives, want 8", len(plan.Reps))
	}
	for i, rep := range plan.Reps {
		if rep.Weight != 1 || rep.Window != uint64(i) {
			t.Errorf("rep %d = %+v, want window %d weight 1", i, rep, i)
		}
	}
}

// TestBuildPlanRejectsMismatchedProfile: a profile taken with a different
// geometry must be rejected, not silently misclassified.
func TestBuildPlanRejectsMismatchedProfile(t *testing.T) {
	cfg := testConfig(2)
	short := profileFor(cfg, []float64{2, 2, 2, 2, 1, 1, 1, 1})[:6]
	if _, err := BuildPlan(cfg, short); err == nil || !strings.Contains(err.Error(), "measured windows") {
		t.Errorf("short profile accepted: %v", err)
	}
	wrong := profileFor(cfg, []float64{2, 2, 2, 2, 1, 1, 1, 1})
	wrong[4].Instr = 500
	if _, err := BuildPlan(cfg, wrong); err == nil || !strings.Contains(err.Error(), "different window") {
		t.Errorf("wrong-window profile accepted: %v", err)
	}
}

// TestPlanSegments: representative w maps onto the shard segment whose
// measured region is exactly the serial run's interval w, with the
// warmup split into its functional and detailed parts.
func TestPlanSegments(t *testing.T) {
	cfg := testConfig(2)
	cfg.DetailWarmup = 500
	plan := &Plan{Config: cfg, Reps: []Rep{{Phase: 1, Window: 2, Weight: 5}, {Phase: 0, Window: 6, Weight: 3}}}
	segs := plan.Segments()
	want := []shard.Segment{
		{Index: 0, Offset: 2000, FuncWarmup: 1500, Warmup: 500, Measure: 1000},
		{Index: 1, Offset: 6000, FuncWarmup: 1500, Warmup: 500, Measure: 1000},
	}
	if !reflect.DeepEqual(segs, want) {
		t.Errorf("segments %+v, want %+v", segs, want)
	}

	// Fully detailed warmup when DetailWarmup is unset.
	cfg.DetailWarmup = 0
	plan.Config = cfg
	if seg := plan.Segments()[0]; seg.FuncWarmup != 0 || seg.Warmup != 2000 {
		t.Errorf("default warmup split %d+%d, want 0+2000", seg.FuncWarmup, seg.Warmup)
	}

	// K=1: the serial segment.
	one := testConfig(1)
	if seg := (&Plan{Config: one, Reps: []Rep{{Weight: 1}}}).Segments()[0]; seg.Offset != 0 || seg.Measure != one.Measure {
		t.Errorf("K=1 segment %+v is not the serial run", seg)
	}
}
