package experiments

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/run"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// tiny returns sub-second options for unit tests.
func tiny() Options {
	return Options{
		ServerWorkloads:     2,
		SpecWorkloads:       2,
		SMTPairsPerCategory: 1,
		Warmup:              20_000,
		Measure:             40_000,
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"ext1", "fig1", "fig2", "fig3", "fig4", "fig8a", "fig8b",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "mc1", "tab1", "tab2", "tab3"}
	have := All()
	if len(have) != len(want) {
		t.Fatalf("registry has %d entries, want %d: %v", len(have), len(want), have)
	}
	for _, id := range want {
		if _, err := Run(id, Options{}); id == "tab1" || id == "tab2" {
			if err != nil {
				t.Errorf("%s: %v", id, err)
			}
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", tiny()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestPolicyTableMatchesPaper(t *testing.T) {
	combos := PolicyTable()
	if len(combos) != 9 {
		t.Fatalf("policy table has %d rows, want 9", len(combos))
	}
	byName := map[string]Combo{}
	for _, c := range combos {
		byName[c.Name] = c
	}
	if c := byName["iTP+xPTP"]; c.STLB != "itp" || c.L2C != "xptp" || c.LLC != "lru" {
		t.Errorf("iTP+xPTP combo wrong: %+v", c)
	}
	if c := byName["CHiRP+TDRRIP"]; c.STLB != "chirp" || c.L2C != "tdrrip" {
		t.Errorf("CHiRP+TDRRIP combo wrong: %+v", c)
	}
}

func TestTab1HasTable1Values(t *testing.T) {
	res, err := Tab1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	find := func(series, label string) float64 {
		for _, r := range res.Rows {
			if r.Series == series && r.Label == label {
				return r.Value
			}
		}
		t.Fatalf("row %s/%s missing", series, label)
		return 0
	}
	if find("STLB", "entries") != 1536 {
		t.Error("STLB entries wrong")
	}
	if find("core", "ROB entries") != 352 {
		t.Error("ROB wrong")
	}
	if find("iTP", "N") != 4 || find("iTP", "M") != 8 {
		t.Error("iTP params wrong")
	}
}

func TestFig2RunsAndShapes(t *testing.T) {
	res, err := Fig2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var serverMean, specMean float64
	for _, r := range res.Rows {
		if r.Label == "MEAN" {
			if r.Series == "qualcomm-server" {
				serverMean = r.Value
			} else {
				specMean = r.Value
			}
		}
	}
	if serverMean <= specMean {
		t.Errorf("server instruction STLB MPKI (%.3f) should exceed spec (%.3f)", serverMean, specMean)
	}
}

func TestFig1Shape(t *testing.T) {
	o := tiny()
	// Fig1 compares steady-state translation overheads; give it enough
	// instructions for the ITLB-size effect to emerge from warmup noise.
	o.Warmup, o.Measure = 150_000, 400_000
	res, err := Fig1(o)
	if err != nil {
		t.Fatal(err)
	}
	// Server overhead at 8 entries must exceed overhead at 1024 entries.
	get := func(series, label string) float64 {
		for _, r := range res.Rows {
			if r.Series == series && r.Label == label {
				return r.Value
			}
		}
		t.Fatalf("missing row %s/%s", series, label)
		return 0
	}
	if get("qualcomm-server", "8 entries") <= get("qualcomm-server", "1024 entries") {
		t.Error("bigger ITLB should reduce instruction translation overhead")
	}
	if get("spec", "64 entries") > get("qualcomm-server", "64 entries") {
		t.Error("spec overhead should be below server overhead at 64 entries")
	}
}

func TestFig8aRuns(t *testing.T) {
	res, err := Fig8a(tiny())
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]bool{}
	geomeans := 0
	for _, r := range res.Rows {
		series[r.Series] = true
		if r.Label == "GEOMEAN" {
			geomeans++
		}
	}
	if len(series) != 9 || geomeans != 9 {
		t.Errorf("expected 9 series each with a geomean; got %d series, %d geomeans", len(series), geomeans)
	}
}

func TestFig8bRuns(t *testing.T) {
	res, err := Fig8b(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range res.Rows {
		if r.Label == "GEOMEAN" {
			return
		}
	}
	t.Error("missing geomean rows")
}

func TestFig10Shape(t *testing.T) {
	o := tiny()
	o.Warmup, o.Measure = 100_000, 200_000
	res, err := Fig10(o)
	if err != nil {
		t.Fatal(err)
	}
	get := func(series, label string) float64 {
		for _, r := range res.Rows {
			if r.Series == series && r.Label == label {
				return r.Value
			}
		}
		t.Fatalf("missing %s/%s", series, label)
		return 0
	}
	if get("itp", "1T iMPKI") >= get("lru", "1T iMPKI") {
		t.Error("iTP should reduce single-thread instruction STLB MPKI")
	}
}

func TestMemoisationSharesBaselines(t *testing.T) {
	r := newRunner(tiny())
	cfg := config.Default()
	j1 := r.spec([]string{"srv_000"}, cfg)
	j2 := r.spec([]string{"srv_000"}, cfg)
	if j1.Key() != j2.Key() {
		t.Error("identical jobs should share a memo key")
	}
	s1, err := r.runAll([]run.Spec{j1})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r.runAll([]run.Spec{j2})
	if err != nil {
		t.Fatal(err)
	}
	if s1[0] != s2[0] {
		t.Error("memoised run should return the same stats object")
	}
}

// TestRunAllReportsFaultsWithPartialResults is the acceptance scenario:
// a sweep containing one injected-panic job and one injected-stall job
// must complete, report both failures (with stack and diagnostic
// snapshot), and still produce results for every healthy job.
func TestRunAllReportsFaultsWithPartialResults(t *testing.T) {
	o := tiny()
	o.WatchdogInterval = 10 * time.Millisecond
	o.WatchdogSamples = 3
	r := newRunner(o)
	base, err := r.Catalog.Get("spec_000")
	if err != nil {
		t.Fatal(err)
	}
	r.Catalog.Register("fault_panic", workload.HighPressure, func() workload.Stream {
		return workload.NewPanicStream(base.NewStream(), 10_000)
	})
	r.Catalog.Register("fault_stall", workload.HighPressure, func() workload.Stream {
		// Auto-release only bounds the leak if the kill path were broken;
		// the supervisor's context cancellation is the real unblock.
		return workload.NewStallStream(base.NewStream(), 30_000, 5*time.Second)
	})

	cfg := config.Default()
	sims, err := r.runAll(r.specs(solos([]string{"srv_000", "fault_panic", "fault_stall", "spec_001"}), cfg))
	if err == nil {
		t.Fatal("sweep with injected faults must report an error")
	}
	var pe *harness.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("joined error should contain the injected panic, got: %v", err)
	} else if !strings.Contains(pe.Error(), "injected panic") || !strings.Contains(pe.Error(), "goroutine") {
		t.Errorf("panic error should carry the value and a stack, got: %v", pe)
	}
	var se *harness.StallError
	if !errors.As(err, &se) {
		t.Errorf("joined error should contain the watchdog stall, got: %v", err)
	} else if !strings.Contains(se.Snapshot, "progress=") {
		t.Errorf("stall should carry a diagnostic snapshot, got: %q", se.Snapshot)
	}
	if sims[0] == nil || sims[3] == nil {
		t.Error("healthy jobs must produce results despite the faulty ones")
	}
	if sims[1] != nil || sims[2] != nil {
		t.Error("failed jobs must leave their result slots nil")
	}
}

// TestRunAllCheckpointResume re-runs an interrupted campaign against the
// same journal with a fresh runner (cold in-process memo, as after a
// process restart): completed jobs must be recalled from the checkpoint
// without re-simulation, and only the previously failed job re-executes.
func TestRunAllCheckpointResume(t *testing.T) {
	o := tiny()
	o.Checkpoint = filepath.Join(t.TempDir(), "exp.ckpt")
	cfg := config.Default()

	r1 := newRunner(o)
	base1, err := r1.Catalog.Get("spec_000")
	if err != nil {
		t.Fatal(err)
	}
	r1.Catalog.Register("flappy", workload.HighPressure, func() workload.Stream {
		return workload.NewPanicStream(base1.NewStream(), 10_000)
	})
	names := solos([]string{"srv_000", "flappy", "spec_001"})
	sims1, err := r1.runAll(r1.specs(names, cfg))
	if err == nil {
		t.Fatal("first pass must report the injected failure")
	}
	if sims1[0] == nil || sims1[2] == nil {
		t.Fatal("healthy jobs of the first pass must complete")
	}

	// Second pass: poison the completed workloads' generators so any
	// re-simulation panics (and fails the pass), and heal the flaky one.
	r2 := newRunner(o)
	r2.Catalog.Register("srv_000", workload.HighPressure, func() workload.Stream {
		panic("checkpointed job was re-simulated")
	})
	r2.Catalog.Register("spec_001", workload.LowPressure, func() workload.Stream {
		panic("checkpointed job was re-simulated")
	})
	base2, err := r2.Catalog.Get("spec_000")
	if err != nil {
		t.Fatal(err)
	}
	r2.Catalog.Register("flappy", workload.HighPressure, base2.NewStream)
	sims2, err := r2.runAll(r2.specs(names, cfg))
	if err != nil {
		t.Fatalf("resumed pass should recall completed jobs and heal the rest: %v", err)
	}
	for i, s := range sims2 {
		if s == nil {
			t.Fatalf("resumed pass left slot %d empty", i)
		}
	}
	// Recalled results survive the JSON round trip with their numbers.
	if sims2[0].IPC() != sims1[0].IPC() || sims2[0].TotalInstructions() != sims1[0].TotalInstructions() {
		t.Errorf("recalled result drifted: IPC %v vs %v", sims2[0].IPC(), sims1[0].IPC())
	}
}

func TestJobKeysDifferAcrossConfigs(t *testing.T) {
	r := newRunner(tiny())
	a := r.spec([]string{"srv_000"}, config.Default())
	cfg := config.Default()
	cfg.STLBPolicy = "itp"
	b := r.spec([]string{"srv_000"}, cfg)
	if a.Key() == b.Key() {
		t.Error("different policies must not share a memo key")
	}
	cfg2 := config.Default()
	cfg2.HugePageFraction = 0.5
	c := r.spec([]string{"srv_000"}, cfg2)
	if a.Key() == c.Key() {
		t.Error("different huge-page fractions must not share a memo key")
	}
}

func TestPrintOutput(t *testing.T) {
	res := Result{
		Figure: "figX",
		Title:  "demo",
		YLabel: "units",
		Rows: []Row{
			{Series: "a", Label: "w1", Value: 1.5, Extra: map[string]float64{"m": 2}},
			{Series: "b", Label: "GEOMEAN", Value: -0.25},
		},
		Notes: []string{"a note"},
	}
	var buf bytes.Buffer
	Print(&buf, res)
	out := buf.String()
	for _, frag := range []string{"figX", "demo", "units", "GEOMEAN", "m=2.0000", "a note"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestGeomeanSpeedupAgainstKnownValues(t *testing.T) {
	mk := func(instr, cycles uint64) *stats.Sim {
		s := stats.NewSim()
		s.Instructions[0] = instr
		s.Cycles = arch.Cycle(cycles)
		return s
	}
	bases := []*stats.Sim{mk(1000, 1000), mk(1000, 1000)}
	withs := []*stats.Sim{mk(1100, 1000), mk(1000, 1000)} // +10% and 0%
	got := geomeanSpeedup(bases, withs)
	want := 100 * (1.0488088481701515 - 1) // sqrt(1.1)
	if got < want-0.01 || got > want+0.01 {
		t.Errorf("geomean speedup = %.4f, want %.4f", got, want)
	}
	if s := speedup(bases[0], withs[0]); s < 9.999 || s > 10.001 {
		t.Errorf("speedup = %v, want ~10", s)
	}
	// Self comparison is exactly zero.
	if geomeanSpeedup(bases[:1], bases[:1]) != 0 {
		t.Error("self speedup should be 0")
	}
}

// TestShardedRunAllMatchesSerial routes the same job set through the
// serial and Options.Shards paths: pair jobs (run whole) and duplicate
// keys must be exact, single-workload jobs must agree within the
// sharding methodology's error bounds (DESIGN.md §12), and the stitched
// instruction count must be exact.
func TestShardedRunAllMatchesSerial(t *testing.T) {
	o := tiny()
	serial := newRunner(o)
	cfg := config.Default()
	names := serial.serverSet()
	// The last unit repeats the first: a duplicate key.
	units := [][]string{{names[0]}, {names[0], names[1]}, {names[0]}}
	want, err := serial.runAll(serial.specs(units, cfg))
	if err != nil {
		t.Fatal(err)
	}

	o.Shards = 2
	sharded := newRunner(o)
	jobs := sharded.specs(units, cfg)
	got, err := sharded.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(jobs) {
		t.Fatalf("sharded runAll returned %d results, want %d", len(got), len(jobs))
	}
	for i, s := range got {
		if s == nil {
			t.Fatalf("job %d: nil stats", i)
		}
		if gi, wi := s.TotalInstructions(), want[i].TotalInstructions(); gi != wi {
			t.Errorf("job %d: %d instructions, serial %d", i, gi, wi)
		}
	}
	if !reflect.DeepEqual(got[1], want[1]) {
		t.Error("pair job runs whole and must match the serial run exactly")
	}
	if got[2] != got[0] {
		t.Error("duplicate-key jobs should share one stitched stats record")
	}
	// The only sharded approximation is warmup; at this 1:1 warmup:measure
	// geometry IPC stays well inside the documented bounds.
	if d := got[0].IPC()/want[0].IPC() - 1; d > 0.15 || d < -0.15 {
		t.Errorf("sharded IPC %.4f vs serial %.4f: delta %.3f outside bound", got[0].IPC(), want[0].IPC(), d)
	}
	// Memoisation: a second sharded runAll recalls every stitched record.
	again, err := sharded.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != got[i] {
			t.Errorf("job %d: second sharded runAll should hit the memo", i)
		}
	}
}

// TestShardedFigure runs one real figure through Options.Shards and
// checks it produces the same rows as the serial run.
func TestShardedFigure(t *testing.T) {
	o := tiny()
	serial, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Shards = 2
	sharded, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Rows) != len(serial.Rows) {
		t.Fatalf("sharded Fig2 has %d rows, serial %d", len(sharded.Rows), len(serial.Rows))
	}
	for i, r := range sharded.Rows {
		if r.Series != serial.Rows[i].Series || r.Label != serial.Rows[i].Label {
			t.Errorf("row %d: %s/%s, serial %s/%s", i, r.Series, r.Label, serial.Rows[i].Series, serial.Rows[i].Label)
		}
		if r.Value < 0 || r.Value != r.Value {
			t.Errorf("row %d (%s/%s): bad value %v", i, r.Series, r.Label, r.Value)
		}
	}
}

// TestSampledRunAllMatchesSerial routes the same job set through the
// serial and Options.SamplePhases paths: pair jobs (run whole) and
// duplicate keys must be exact, the reconstructed instruction count must
// be exact, and IPC must land within the sampling methodology's bounds
// (DESIGN.md §14 — wider than sharding's because phase sampling
// approximates the measured region, not just the warmup).
func TestSampledRunAllMatchesSerial(t *testing.T) {
	o := tiny()
	serial := newRunner(o)
	cfg := config.Default()
	names := serial.serverSet()
	// The last unit repeats the first: a duplicate key.
	units := [][]string{{names[0]}, {names[0], names[1]}, {names[0]}}
	want, err := serial.runAll(serial.specs(units, cfg))
	if err != nil {
		t.Fatal(err)
	}

	o.SamplePhases = 2
	o.SampleWindow = 10_000
	o.FuncWarmup = 10_000
	sampled := newRunner(o)
	jobs := sampled.specs(units, cfg)
	got, err := sampled.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		if s == nil {
			t.Fatalf("job %d: nil stats", i)
		}
		if gi, wi := s.TotalInstructions(), want[i].TotalInstructions(); gi != wi {
			t.Errorf("job %d: %d instructions, serial %d (weights must cover the measured region exactly)", i, gi, wi)
		}
	}
	if !reflect.DeepEqual(got[1], want[1]) {
		t.Error("pair job runs whole and must match the serial run exactly")
	}
	if got[2] != got[0] {
		t.Error("duplicate-key jobs should share one stitched stats record")
	}
	if d := got[0].IPC()/want[0].IPC() - 1; d > 0.35 || d < -0.35 {
		t.Errorf("sampled IPC %.4f vs serial %.4f: delta %.3f outside bound", got[0].IPC(), want[0].IPC(), d)
	}
	// Memoisation: a second sampled runAll recalls every stitched record
	// without re-profiling.
	again, err := sampled.runAll(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range again {
		if again[i] != got[i] {
			t.Errorf("job %d: second sampled runAll should hit the memo", i)
		}
	}
	// SamplePhases and Shards together is a configuration error.
	o.Shards = 2
	both := newRunner(o)
	if _, err := both.runAll(both.specs(units, cfg)); err == nil {
		t.Error("SamplePhases+Shards accepted; want an error")
	}
}

// TestFuncWarmupRunAll: FuncWarmup alone (Shards unset) routes
// single-workload jobs through the segment engine as one functionally
// warmed shard; the result stays close to the serial run.
func TestFuncWarmupRunAll(t *testing.T) {
	o := tiny()
	serial := newRunner(o)
	cfg := config.Default()
	units := solos(serial.serverSet()[:1])
	want, err := serial.runAll(serial.specs(units, cfg))
	if err != nil {
		t.Fatal(err)
	}
	o.FuncWarmup = 10_000
	warmed := newRunner(o)
	got, err := warmed.runAll(warmed.specs(units, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if gi, wi := got[0].TotalInstructions(), want[0].TotalInstructions(); gi != wi {
		t.Errorf("%d instructions, serial %d", gi, wi)
	}
	if d := got[0].IPC()/want[0].IPC() - 1; d > 0.15 || d < -0.15 {
		t.Errorf("func-warmed IPC %.4f vs serial %.4f: delta %.3f outside bound", got[0].IPC(), want[0].IPC(), d)
	}
}

// TestSampledFigure runs one real figure through Options.SamplePhases
// and checks it produces the same rows as the serial run.
func TestSampledFigure(t *testing.T) {
	o := tiny()
	serial, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	o.SamplePhases = 2
	o.SampleWindow = 10_000
	sampled, err := Fig2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled.Rows) != len(serial.Rows) {
		t.Fatalf("sampled Fig2 has %d rows, serial %d", len(sampled.Rows), len(serial.Rows))
	}
	for i, r := range sampled.Rows {
		if r.Series != serial.Rows[i].Series || r.Label != serial.Rows[i].Label {
			t.Errorf("row %d: %s/%s, serial %s/%s", i, r.Series, r.Label, serial.Rows[i].Series, serial.Rows[i].Label)
		}
		if r.Value != r.Value {
			t.Errorf("row %d (%s/%s): NaN value", i, r.Series, r.Label)
		}
	}
}
