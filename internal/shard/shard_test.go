package shard

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// TestSegmentsTile: the stitching precondition, as a property over a grid
// of plan shapes — segments must tile the measured region gap-free,
// duplicate-free, and in ascending order, and the 1-shard plan must
// degenerate to the serial run.
func TestSegmentsTile(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 64} {
		for _, n := range []uint64{uint64(k), 100, 999, 1000, 1 << 20, 2_000_000, 2_000_001} {
			if n < uint64(k) {
				continue
			}
			p := Plan{Shards: k, Warmup: 12345, Measure: n}
			if err := p.Validate(); err != nil {
				t.Fatalf("plan %+v: %v", p, err)
			}
			segs := p.Segments()
			if len(segs) != k {
				t.Fatalf("plan %+v: %d segments", p, len(segs))
			}
			var next, total uint64
			for i, seg := range segs {
				if seg.Index != i {
					t.Fatalf("plan %+v: segment %d has index %d", p, i, seg.Index)
				}
				if seg.Offset != next {
					t.Fatalf("plan %+v: segment %d offset %d, want %d (gap or overlap)", p, i, seg.Offset, next)
				}
				if seg.Measure == 0 {
					t.Fatalf("plan %+v: segment %d is empty", p, i)
				}
				if seg.Warmup != p.Warmup {
					t.Fatalf("plan %+v: segment %d warmup %d", p, i, seg.Warmup)
				}
				next = seg.Offset + seg.Measure
				total += seg.Measure
			}
			if total != n {
				t.Fatalf("plan %+v: segments measure %d of %d", p, total, n)
			}
			if k == 1 && (segs[0].Offset != 0 || segs[0].Measure != n) {
				t.Fatalf("1-shard plan is not the serial run: %+v", segs[0])
			}
			if ws := p.Weights(); len(ws) != k || slices.Min(ws) != 1 || slices.Max(ws) != 1 {
				t.Fatalf("plan %+v: weights %v, want %d ones", p, ws, k)
			}
		}
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (Plan{Shards: 0, Measure: 10}).Validate(); err == nil {
		t.Error("0-shard plan validated")
	}
	if err := (Plan{Shards: 4, Measure: 3}).Validate(); err == nil {
		t.Error("measure < shards validated")
	}
}

// windowedRun runs a small sharded simulation with window sampling on.
func windowedRun(t *testing.T, k int, warmup, measure, window uint64) *Result {
	t.Helper()
	src := testSource(t, workload.NewCatalog(120, 20).SpecNames()[0])
	cfg := Config{System: config.Default(), MetricsWindow: window}
	res, err := Run(cfg, Plan{Shards: k, Warmup: warmup, Measure: measure}, "windows", src, nil, harness.Options{})
	if err != nil {
		t.Fatalf("sharded run: %v", err)
	}
	return res
}

// TestStitchedWindowProperties: the stitched window series must be
// gap-free, duplicate-free, and strictly monotonic in retired
// instructions — in serial coordinates, exactly the windows the serial
// run would have closed over the measured region.
func TestStitchedWindowProperties(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates hundreds of thousands of instructions")
	}
	const (
		k       = 4
		warmup  = 20_000
		measure = 120_000
		window  = 10_000
	)
	res := windowedRun(t, k, warmup, measure, window)
	if want := int(measure / window); len(res.Windows) != want {
		t.Fatalf("stitched %d windows, want %d", len(res.Windows), want)
	}
	for i, rec := range res.Windows {
		if rec.Window != uint64(i) {
			t.Errorf("window %d numbered %d: series must be renumbered sequentially", i, rec.Window)
		}
		// Gap-free and duplicate-free: window i closes at exactly
		// warmup + (i+1)·window in serial retired-instruction coordinates.
		if want := arch.Instr(warmup + uint64(i+1)*window); rec.Retired != want {
			t.Errorf("window %d closed at %d retired, want %d", i, rec.Retired, want)
		}
		if rec.Instr != arch.Instr(window) {
			t.Errorf("window %d spans %d instructions, want %d", i, rec.Instr, window)
		}
		if i > 0 && rec.Retired <= res.Windows[i-1].Retired {
			t.Errorf("window %d not monotonic: %d after %d", i, rec.Retired, res.Windows[i-1].Retired)
		}
	}
}

type outcomeSet = []harness.Outcome[*Payload]

// outcomesFor fabricates one successful outcome per segment.
func outcomesFor(segs []Segment) outcomeSet {
	outs := make(outcomeSet, len(segs))
	for i, seg := range segs {
		outs[i] = harness.Outcome[*Payload]{
			Key:    "k",
			Result: &Payload{Segment: seg, Stats: statsFor(seg)},
		}
	}
	return outs
}

// TestStitchRejects: stitching must reject outcome sets that do not match
// the segments and weights instead of summing garbage.
func TestStitchRejects(t *testing.T) {
	segs := Plan{Shards: 2, Warmup: 10, Measure: 100}.Segments()
	weights := []uint64{3, 1}
	if _, err := Stitch(segs, weights, outcomesFor(segs)); err != nil {
		t.Fatalf("valid outcomes rejected: %v", err)
	}
	same := func(o outcomeSet) outcomeSet { return o }
	for _, c := range []struct {
		name    string
		weights []uint64
		mut     func(outcomeSet) outcomeSet
		want    string
	}{
		{"short outcome set", weights, func(o outcomeSet) outcomeSet { return o[:1] }, "outcomes"},
		{"short weights", weights[:1], same, "weights"},
		{"no weights", nil, same, "weights"},
		{"failed segment", weights, func(o outcomeSet) outcomeSet { o[1].Err = errTest; return o }, "test error"},
		{"nil payload", weights, func(o outcomeSet) outcomeSet { o[0].Result = nil; return o }, "empty payload"},
		// A checkpoint from a different split.
		{"stale payload", weights, func(o outcomeSet) outcomeSet { o[1].Result.Segment.Offset++; return o }, "stale"},
	} {
		if _, err := Stitch(segs, c.weights, c.mut(outcomesFor(segs))); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

var errTest = &testErr{}

type testErr struct{}

func (*testErr) Error() string { return "test error" }

// statsFor fabricates a payload Sim for stitch unit tests.
func statsFor(seg Segment) *stats.Sim {
	s := stats.NewSim()
	s.Cycles = arch.Cycle(seg.Measure * 2)
	s.Instructions[0] = seg.Measure
	s.STLB.Misses[0] = seg.Measure / 10
	return s
}

// TestStitchSums: summation is exact — the stitched counters are the
// weighted field-wise sums of the segment counters and ratio metrics
// recompute from them.
func TestStitchSums(t *testing.T) {
	plan := Plan{Shards: 3, Warmup: 5, Measure: 300} // 100 instructions each
	segs := plan.Segments()
	for _, c := range []struct {
		weights []uint64
		scale   uint64 // total weight
	}{
		{plan.Weights(), 3},
		{[]uint64{3, 3, 3}, 9},
		{[]uint64{1, 2, 3}, 6},
	} {
		res, err := Stitch(segs, c.weights, outcomesFor(segs))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.TotalInstructions(), 100*c.scale; got != want {
			t.Errorf("weights %v: instructions %d, want %d", c.weights, got, want)
		}
		if got, want := uint64(res.Stats.Cycles), 200*c.scale; got != want {
			t.Errorf("weights %v: cycles %d, want %d", c.weights, got, want)
		}
		if res.IPC != 0.5 {
			t.Errorf("weights %v: IPC %f, want 0.5", c.weights, res.IPC)
		}
		if got, want := res.Stats.STLB.Misses[0], 10*c.scale; got != want {
			t.Errorf("weights %v: summed STLB misses %d, want %d", c.weights, got, want)
		}
		for i, sr := range res.Segments {
			if sr.Weight != c.weights[i] {
				t.Errorf("weights %v: segment %d reports weight %d", c.weights, i, sr.Weight)
			}
		}
	}

	// Weight 3 on every segment is exactly 3× the unweighted stitch, in
	// every field: the same as adding the unweighted totals three times.
	once, err := Stitch(segs, plan.Weights(), outcomesFor(segs))
	if err != nil {
		t.Fatal(err)
	}
	thrice, err := Stitch(segs, []uint64{3, 3, 3}, outcomesFor(segs))
	if err != nil {
		t.Fatal(err)
	}
	want := stats.NewSim()
	for i := 0; i < 3; i++ {
		want.AddScaled(once.Stats, 1)
	}
	if !reflect.DeepEqual(thrice.Stats, want) {
		t.Errorf("weight-3 stitch is not 3× the unweighted one:\n%v\nwant\n%v", thrice.Stats, want)
	}
}

// TestBeaconRule: only a single segment of weight 1 with fully detailed
// warmup simulates the serial machine, so only it reports a
// serial-comparable beacon — whether it came from a 1-shard or a 1-phase
// plan.
func TestBeaconRule(t *testing.T) {
	stamp := &harness.BeaconStamp{Chain: 0xbeac0, Count: 7}
	seg := func(weight, funcWarmup uint64) SegmentResult {
		return SegmentResult{Segment: Segment{Warmup: 10, FuncWarmup: funcWarmup, Measure: 100}, Weight: weight, Beacon: stamp}
	}
	for _, c := range []struct {
		name   string
		segs   []SegmentResult
		serial bool
	}{
		{"1 shard / 1 phase, detailed warmup", []SegmentResult{seg(1, 0)}, true},
		{"1 shard, functional warmup", []SegmentResult{seg(1, 5)}, false},
		{"1 phase, functional warmup", []SegmentResult{seg(1, 100)}, false},
		{"1 representative standing for 3 intervals", []SegmentResult{seg(3, 0)}, false},
		{"3 shards", []SegmentResult{seg(1, 0), seg(1, 0), seg(1, 0)}, false},
		{"4 phases", []SegmentResult{seg(2, 0), seg(1, 0), seg(4, 0), seg(1, 0)}, false},
		{"no segments", nil, false},
	} {
		got := (&Result{Segments: c.segs}).Beacon()
		if (got != nil) != c.serial {
			t.Errorf("%s: beacon %v, serial-comparable %v", c.name, got, c.serial)
		}
	}
}

// TestIndexReuse: retrieving the same (source, offsets) twice must return
// fresh streams both times — consuming the first retrieval cannot perturb
// the second — and the second retrieval must not redo the positioning
// pass (observable: both retrievals produce identical sequences).
func TestIndexReuse(t *testing.T) {
	src := testSource(t, workload.NewCatalog(120, 20).ServerNames()[2])
	ix := NewIndex()
	offsets := []uint64{0, 5_000, 12_288}

	first, err := ix.Streams(src, offsets)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the first retrieval completely before asking again.
	drained := make([][]workload.Instr, len(first))
	for i, s := range first {
		drained[i] = make([]workload.Instr, 2048)
		workload.FillBatch(s, drained[i])
	}
	second, err := ix.Streams(src, offsets)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range second {
		got := make([]workload.Instr, 2048)
		workload.FillBatch(s, got)
		for j := range got {
			if got[j] != drained[i][j] {
				t.Fatalf("offset %d: cached snapshot perturbed at instr %d", offsets[i], j)
			}
		}
	}
}

// opaque hides a stream's Cloner, like a streaming trace decoder, with a
// real deterministic generator underneath.
type opaque struct{ inner workload.Stream }

func (o *opaque) Next(in *workload.Instr) bool { return o.inner.Next(in) }

// TestIndexNonClonable: segments are positioned by snapshotting the
// stream, so a non-clonable source is rejected with its name — by the
// index and by the job builder — rather than run some slower way.
func TestIndexNonClonable(t *testing.T) {
	base := testSource(t, workload.NewCatalog(120, 20).SpecNames()[1])
	src := Source{Name: "opaque-src", New: func() workload.Stream { return &opaque{inner: base.New()} }}
	if _, err := NewIndex().Streams(src, []uint64{0, 4_000}); err == nil || !strings.Contains(err.Error(), "source opaque-src is not clonable") {
		t.Errorf("index: got %v, want the source named as not clonable", err)
	}
	segs := Plan{Shards: 2, Warmup: 100, Measure: 200}.Segments()
	if _, err := SegmentJobs(Config{System: config.Default()}, segs, "k", src, nil); err == nil || !strings.Contains(err.Error(), "opaque-src") {
		t.Errorf("segment jobs: got %v, want the source named", err)
	}
}

// TestPositionRejects: positioning errors are reported, not mangled.
func TestPositionRejects(t *testing.T) {
	src := testSource(t, workload.NewCatalog(120, 20).ServerNames()[0])
	if _, err := position(src, []uint64{100, 50}); err == nil {
		t.Error("descending offsets accepted")
	}
	nilSrc := Source{Name: "nil", New: func() workload.Stream { return nil }}
	if _, err := position(nilSrc, []uint64{0}); err == nil {
		t.Error("nil stream accepted")
	}
	short := Source{Name: "short", New: func() workload.Stream {
		return workload.Limit(src.New(), 10)
	}}
	if _, err := position(short, []uint64{100}); err == nil {
		t.Error("offset past stream end accepted")
	}
}
