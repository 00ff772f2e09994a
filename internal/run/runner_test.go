package run

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"itpsim/internal/chaos"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/trace"
	"itpsim/internal/workload"
)

func newTestRunner() *Runner { return NewRunner(workload.NewCatalog(120, 20)) }

func opts() harness.Options { return Supervision{Parallel: 2}.Options(0, nil) }

// TestExecuteGeometryKeysCheckpoint is the stale-checkpoint regression:
// two specs that differ only in STLB entries share one journal, and the
// second must simulate rather than recall the first's result.
func TestExecuteGeometryKeysCheckpoint(t *testing.T) {
	o := opts()
	o.Checkpoint = filepath.Join(t.TempDir(), "k.ckpt")
	small, big := base(), base()
	small.System = small.System.WithSTLBEntries(768)
	big.System = big.System.WithSTLBEntries(3072)

	first, err := newTestRunner().Execute(o, []Spec{small}, nil)
	if err != nil || first[0].Cached {
		t.Fatalf("first run: cached=%v err=%v", first[0].Cached, err)
	}
	second, err := newTestRunner().Execute(o, []Spec{big}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second[0].Cached {
		t.Fatal("a 3072-entry STLB run was recalled from a 768-entry run's checkpoint")
	}
	if reflect.DeepEqual(first[0].Stats, second[0].Stats) {
		t.Error("different STLB sizes simulated identically; the regression lost its teeth")
	}
	again, err := newTestRunner().Execute(o, []Spec{big}, nil)
	if err != nil || !again[0].Cached || !reflect.DeepEqual(again[0].Stats, second[0].Stats) {
		t.Errorf("rerun of the same spec should be recalled: cached=%v err=%v", again[0].Cached, err)
	}
}

// TestExecuteMemoDuplicatesAndFailures: repeated keys in a batch run
// once, a second batch recalls from the memo, an invalid spec fails
// without running, and an unknown workload fails alone.
func TestExecuteMemoDuplicatesAndFailures(t *testing.T) {
	r := newTestRunner()
	bad := base()
	bad.Shards, bad.Phases, bad.Window = 2, 2, 10_000
	unknown := base()
	unknown.Tenants = []string{"nosuch_999"}
	unknownSplit := unknown
	unknownSplit.Shards = 2
	badMachine := base()
	badMachine.System.HugePageFraction = 2
	specs := []Spec{base(), base(), bad, unknown, unknownSplit, badMachine}
	res, err := r.Execute(opts(), specs, nil)
	if err == nil {
		t.Fatal("a batch with failures must report an error")
	}
	if res[0].Stats == nil || res[1].Stats != res[0].Stats {
		t.Error("duplicate keys should share one result")
	}
	if res[2].Err == nil || !strings.Contains(res[2].Err.Error(), "alternative parallel modes") {
		t.Errorf("invalid spec: %v", res[2].Err)
	}
	for _, i := range []int{3, 4} {
		if res[i].Err == nil || !strings.Contains(res[i].Err.Error(), "nosuch_999") || res[i].Stats != nil {
			t.Errorf("spec %d: unknown workload should fail alone, got %v", i, res[i].Err)
		}
	}
	if res[5].Err == nil || !strings.Contains(res[5].Err.Error(), "HugePageFraction") || res[5].Attempts != 1 {
		t.Errorf("an invalid machine should fail its run permanently, got %v after %d attempts", res[5].Err, res[5].Attempts)
	}
	again, err := r.Execute(opts(), specs[:1], nil)
	if err != nil || again[0].Stats != res[0].Stats {
		t.Error("second batch should recall the memoised result")
	}
}

// TestExecuteSplitModes: the 1-shard and 1-phase plans are the serial
// run, beacon chain included; K-way splits measure exactly as many
// instructions as the serial run and report their segments.
func TestExecuteSplitModes(t *testing.T) {
	whole := base()
	whole.BeaconInterval = 10_000
	onePhase := whole
	onePhase.Phases = 1
	sharded := whole
	sharded.Shards = 2
	sampled := whole
	sampled.Phases, sampled.Window, sampled.FuncWarmup = 2, 10_000, 10_000
	warmed := whole
	warmed.FuncWarmup = 10_000
	res, err := newTestRunner().Execute(opts(), []Spec{whole, onePhase, sharded, sampled, warmed}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Beacon == nil || res[0].Split != nil || res[0].Plan != nil {
		t.Fatalf("whole run: beacon %v, split %v, plan %v", res[0].Beacon, res[0].Split, res[0].Plan)
	}
	if res[1].Plan == nil || !reflect.DeepEqual(res[1].Beacon, res[0].Beacon) || !reflect.DeepEqual(res[1].Stats, res[0].Stats) {
		t.Error("the 1-phase plan must reproduce the whole run exactly")
	}
	if res[2].Split == nil || res[2].Plan != nil || len(res[2].Split.Segments) != 2 || res[2].Beacon != nil {
		t.Error("a 2-shard run reports its shards and no serial-comparable beacon")
	}
	if res[3].Plan == nil || len(res[3].Split.Segments) != len(res[3].Plan.Reps) || len(res[3].Plan.Reps) == 0 {
		t.Error("a sampled run reports one segment per representative")
	}
	if res[4].Split == nil || len(res[4].Split.Segments) != 1 || res[4].Beacon != nil {
		t.Error("functional warmup alone runs one warmed shard, which is not serial-exact")
	}
	for i, r := range res {
		if got, want := r.Stats.TotalInstructions(), res[0].Stats.TotalInstructions(); got != want {
			t.Errorf("spec %d measured %d instructions, serial %d", i, got, want)
		}
		if r.Attempts != 1 || r.Cached {
			t.Errorf("spec %d: attempts %d cached %v", i, r.Attempts, r.Cached)
		}
	}
}

// TestExecuteTraceSMTAndCMP: a recorded trace replays like its
// catalogue workload, an SMT pair runs two threads, and a CMP cycles its
// tenants over every core.
func TestExecuteTraceSMTAndCMP(t *testing.T) {
	path := filepath.Join(t.TempDir(), "srv_000.itpt.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f)
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := workload.NewCatalog(120, 20).Get("srv_000")
	if _, err := trace.Record(w, spec.NewStream(), 70_000); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr := base()
	tr.Tenants, tr.Trace = nil, path
	smt := base()
	smt.Tenants, smt.System.SMT = []string{"srv_000", "srv_001"}, true
	cmp := base()
	cmp.System.Cores = 3
	cmp.Tenants = []string{"srv_000", "srv_001"}
	missing := tr
	missing.Trace = path + ".missing"
	res, err := newTestRunner().Execute(opts(), []Spec{base(), tr, smt, cmp, missing}, nil)
	if err == nil || res[4].Err == nil {
		t.Fatal("a missing trace must fail its run")
	}
	if res[1].Stats.IPC() != res[0].Stats.IPC() {
		t.Errorf("trace replay IPC %v, catalogue run %v", res[1].Stats.IPC(), res[0].Stats.IPC())
	}
	if got := res[2].Stats.TotalInstructions(); got != 2*base().Measure {
		t.Errorf("SMT pair measured %d instructions", got)
	}
	if got := len(res[3].Stats.Cores); got != 3 {
		t.Errorf("3-core run reports %d tenants", got)
	}
}

// TestExecuteArm: whole runs stream their windows to the export while
// sharded runs write the stitched series, each under its label, and the
// Stream hook sees every attempt (the chaos read drill recovers on
// retry).
func TestExecuteArm(t *testing.T) {
	var buf bytes.Buffer
	arm := &Arm{Tool: "test", Export: metrics.NewJSONL(&buf), Label: func(i int) string { return []string{"whole", "sharded"}[i] }}
	attempts := 0
	arm.Stream = func(s workload.Stream, attempt int) workload.Stream {
		attempts++
		if attempt == 0 {
			return workload.NewErrorStream(s, 5_000, &chaos.Error{Kind: chaos.ReadFault, Op: "ingest", Off: 5_000})
		}
		return s
	}
	whole := base()
	sharded := base()
	sharded.Shards = 2
	o := opts()
	o.Retries, o.Backoff = 1, time.Millisecond
	res, err := newTestRunner().Execute(o, []Spec{whole, sharded}, arm)
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Attempts != 2 || attempts != 2 {
		t.Errorf("read fault should cost one retry: attempts %d, hook calls %d", res[0].Attempts, attempts)
	}
	want := int(base().Measure / metrics.DefaultWindow)
	for _, label := range []string{"whole", "sharded"} {
		if n := strings.Count(buf.String(), `"job":"`+label+`"`); n < want {
			t.Errorf("%s exported %d windows, want at least %d", label, n, want)
		}
	}

	// A window that does not tile the shards is an expansion error.
	arm = &Arm{Export: metrics.NewJSONL(&buf), Window: 7_000}
	if _, err := newTestRunner().Execute(opts(), []Spec{sharded}, arm); err == nil {
		t.Error("misaligned export window accepted for a sharded run")
	}
}

// TestFlags: the shared flags register once, fill a spec and build the
// supervisor options; Observe writes the export manifest.
func TestFlags(t *testing.T) {
	var f Flags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	out := filepath.Join(t.TempDir(), "m.jsonl")
	if err := fs.Parse([]string{"-shards", "3", "-func-warmup", "7", "-beacon-interval", "9", "-audit", "-retries", "2", "-metrics-out", out}); err != nil {
		t.Fatal(err)
	}
	var s Spec
	f.Apply(&s)
	if s.Shards != 3 || s.FuncWarmup != 7 || s.Window != 50_000 || s.BeaconInterval != 9 || !s.Audit {
		t.Errorf("Apply: %+v", s)
	}
	o := f.Options(5, nil)
	if o.Parallelism < 1 || o.Retries != 2 || o.Seed != 5 || o.WatchdogSamples != 6 {
		t.Errorf("Options: %+v", o)
	}
	arm, closer, err := f.Observe("test", config.Default(), []string{"srv_000"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if arm.Export == nil || arm.Expvar {
		t.Errorf("arm: %+v", arm)
	}
	if err := closer.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil || !bytes.Contains(data, []byte(`"type":"manifest","tool":"test"`)) || !bytes.Contains(data, []byte(`"window_instr":1000`)) {
		t.Errorf("manifest: %s (%v)", data, err)
	}
	f.MetricsOut = filepath.Join(t.TempDir(), "no", "such", "dir")
	if _, _, err := f.Observe("test", config.Default(), nil, nil, nil); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("unwritable export: %v", err)
	}
}
