package shard

import (
	"strings"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/workload"
)

func TestPlanFuncWarmupValidate(t *testing.T) {
	p := Plan{Shards: 2, Warmup: 1000, FuncWarmup: 999, Measure: 2000}
	if err := p.Validate(); err != nil {
		t.Errorf("valid functional-warmup plan rejected: %v", err)
	}
	p.FuncWarmup = 1000 // no detailed suffix left
	if err := p.Validate(); err == nil || !strings.Contains(err.Error(), "suffix") {
		t.Errorf("all-functional warmup accepted: %v", err)
	}
	p.FuncWarmup = 1500
	if err := p.Validate(); err == nil {
		t.Error("functional warmup beyond total warmup accepted")
	}
}

// TestSegmentsFuncWarmupSplit: Segments() splits the plan warmup into a
// functional prefix and a detailed suffix whose sum is the plan warmup,
// leaving the tiling untouched.
func TestSegmentsFuncWarmupSplit(t *testing.T) {
	p := Plan{Shards: 3, Warmup: 10_000, FuncWarmup: 8_000, Measure: 30_000}
	for i, seg := range p.Segments() {
		if seg.FuncWarmup != 8_000 || seg.Warmup != 2_000 {
			t.Errorf("segment %d warmup split %d+%d, want 8000+2000", i, seg.FuncWarmup, seg.Warmup)
		}
		if seg.warmupTotal() != p.Warmup {
			t.Errorf("segment %d total warmup %d, want %d", i, seg.warmupTotal(), p.Warmup)
		}
	}
}

// TestJobsKeyFuncWarmupSuffix: plans without functional warmup must keep
// their pre-existing checkpoint keys byte-identical; plans with it get a
// distinguishing |f suffix so a resume cannot mix the two shapes.
func TestJobsKeyFuncWarmupSuffix(t *testing.T) {
	src := testSource(t, workload.NewCatalog(120, 20).SpecNames()[0])
	cfg := Config{System: config.Default()}
	plan := Plan{Shards: 2, Warmup: 100, Measure: 200}
	jobs, err := SegmentJobs(cfg, plan.Segments(), "base", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobs[0].Key, "base|shard0/2|o0|w100|m100"; got != want {
		t.Errorf("plain key %q, want %q (checkpoint keys must stay stable)", got, want)
	}
	plan.FuncWarmup = 60
	jobs, err = SegmentJobs(cfg, plan.Segments(), "base", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobs[1].Key, "base|shard1/2|o100|w40|m100|f60"; got != want {
		t.Errorf("functional-warmup key %q, want %q", got, want)
	}
}

func TestSegmentJobsRejects(t *testing.T) {
	src := testSource(t, workload.NewCatalog(120, 20).SpecNames()[0])
	cases := []struct {
		name string
		cfg  Config
		segs []Segment
		want string
	}{
		{"empty measure", Config{System: config.Default()},
			[]Segment{{Measure: 0}}, "measures nothing"},
		{"functional without detailed", Config{System: config.Default()},
			[]Segment{{FuncWarmup: 100, Measure: 100}}, "no detailed warmup"},
		{"misaligned warmup", Config{System: config.Default(), MetricsWindow: 100},
			[]Segment{{FuncWarmup: 90, Warmup: 60, Measure: 100}}, "warmup 150"},
		{"misaligned measure", Config{System: config.Default(), MetricsWindow: 100},
			[]Segment{{Warmup: 100, Measure: 150}}, "not a multiple"},
		{"multi-core", func() Config {
			c := Config{System: config.Default()}
			c.System.Cores = 2
			return c
		}(), []Segment{{Warmup: 100, Measure: 100}}, "multi-core"},
	}
	for _, tc := range cases {
		if _, err := SegmentJobs(tc.cfg, tc.segs, "k", src, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestFuncWarmupStitchedWindows: a sharded run that replays most of its
// warmup functionally must still stitch a gap-free window series at the
// exact serial coordinates, and measure the same instruction total.
func TestFuncWarmupStitchedWindows(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates tens of thousands of instructions")
	}
	const (
		k       = 2
		warmup  = 20_000
		fw      = 15_000
		measure = 40_000
		window  = 10_000
	)
	src := testSource(t, workload.NewCatalog(120, 20).SpecNames()[0])
	cfg := Config{System: config.Default(), MetricsWindow: window}
	plan := Plan{Shards: k, Warmup: warmup, FuncWarmup: fw, Measure: measure}
	res, err := Run(cfg, plan, "fw-windows", src, nil, harness.Options{})
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	if got, want := res.Stats.TotalInstructions(), uint64(measure); got != want {
		t.Errorf("measured %d instructions, want %d", got, want)
	}
	if want := int(measure / window); len(res.Windows) != want {
		t.Fatalf("stitched %d windows, want %d", len(res.Windows), want)
	}
	for i, rec := range res.Windows {
		if want := arch.Instr(warmup + uint64(i+1)*window); rec.Retired != want {
			t.Errorf("window %d closed at %d retired, want %d", i, rec.Retired, want)
		}
		if rec.Instr != arch.Instr(window) {
			t.Errorf("window %d spans %d instructions, want %d", i, rec.Instr, window)
		}
	}
}

// TestFuncWarmupNearDetailed: functional warmup is an approximation of
// detailed warmup, not a replacement for it — but it must stay close. A
// sharded run replaying 3/4 of its warmup functionally must land within a
// few percent of the all-detailed sharded run's IPC.
func TestFuncWarmupNearDetailed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates hundreds of thousands of instructions")
	}
	const (
		k       = 4
		warmup  = 40_000
		measure = 120_000
	)
	src := testSource(t, workload.NewCatalog(120, 20).ServerNames()[0])
	ix := NewIndex()
	cfg := Config{System: config.Default()}
	plan := Plan{Shards: k, Warmup: warmup, Measure: measure}
	detailed, err := Run(cfg, plan, "fw-ref", src, ix, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan.FuncWarmup = 30_000
	fw, err := Run(cfg, plan, "fw-run", src, ix, harness.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d := relDelta(fw.IPC, detailed.IPC); d > 0.05 {
		t.Errorf("functional-warmup IPC delta %.4f > 0.05 (fw %.4f detailed %.4f)", d, fw.IPC, detailed.IPC)
	}
	t.Logf("IPC functional %.4f vs detailed %.4f (Δ%.4f)", fw.IPC, detailed.IPC, relDelta(fw.IPC, detailed.IPC))
}
