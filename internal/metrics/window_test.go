package metrics

import (
	"bytes"
	"encoding/json"
	"expvar"
	"itpsim/internal/arch"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestWindowsDefaultSize(t *testing.T) {
	if got := NewWindows(0, Counters{}).Size(); got != DefaultWindow {
		t.Fatalf("default size = %d, want %d", got, DefaultWindow)
	}
	if got := NewWindows(500, Counters{}).Size(); got != 500 {
		t.Fatalf("size = %d, want 500", got)
	}
}

func TestWindowsDeltasAndIPC(t *testing.T) {
	// The starting snapshot's count must not leak into the first window.
	w := NewWindows(1000, Counters{L2CDemandMiss: 5})
	w.Close(1000, 2000, Counters{L2CDemandMiss: 12}, nil)
	w.Close(2000, 2500, Counters{L2CDemandMiss: 15}, nil)

	recs := w.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	r0, r1 := recs[0], recs[1]
	if r0.Window != 0 || r0.Retired != 1000 || r0.Instr != 1000 || r0.Cycles != 2000 {
		t.Fatalf("window 0 = %+v", r0)
	}
	if r0.IPC != 0.5 {
		t.Fatalf("window 0 IPC = %v, want 0.5", r0.IPC)
	}
	if r0.Counters.L2CDemandMiss != 7 {
		t.Fatalf("window 0 miss delta = %d, want 7 (pre-run value leaked)", r0.Counters.L2CDemandMiss)
	}
	if r1.Window != 1 || r1.Instr != 1000 || r1.Cycles != 500 || r1.IPC != 2.0 {
		t.Fatalf("window 1 = %+v", r1)
	}
	if r1.Counters.L2CDemandMiss != 3 {
		t.Fatalf("window 1 miss delta = %d, want 3", r1.Counters.L2CDemandMiss)
	}
	if w.Closed() != 2 {
		t.Fatalf("Closed = %d, want 2", w.Closed())
	}
}

// TestWindowsSinkRunsOutsideLock is the regression test for streaming
// under w.mu: a sink that re-enters the Windows (Recent/Closed for
// context, as a stall diagnostic would) used to deadlock because Close
// called it with the lock held. It must also still observe the complete
// record, derived MPKIs included, and observe it before the next Close.
func TestWindowsSinkRunsOutsideLock(t *testing.T) {
	w := NewWindows(1000, Counters{})
	var got []WindowRecord
	var closedAt []uint64
	w.SetSink(func(rec *WindowRecord) {
		// Re-entering the Windows from the sink deadlocked before the
		// fix; Closed() already counts the window being streamed.
		closedAt = append(closedAt, w.Closed())
		if n := len(w.Recent(1)); n != 1 {
			t.Fatalf("Recent(1) from sink = %d records", n)
		}
		got = append(got, *rec)
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Close(1000, 2000, Counters{STLBDemandMissInstr: 7}, nil)
		w.Close(2000, 4000, Counters{STLBDemandMissInstr: 14}, nil)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close deadlocked with a re-entrant sink")
	}
	if len(got) != 2 || got[0].Window != 0 || got[1].Window != 1 {
		t.Fatalf("sink saw %+v, want windows 0 and 1 in order", got)
	}
	for i, rec := range got {
		if rec.STLBMPKIInstr != 7 {
			t.Errorf("sink record %d missed its MPKI: %+v", i, rec)
		}
	}
	if closedAt[0] != 1 || closedAt[1] != 2 {
		t.Errorf("Closed() from sink = %v, want [1 2] (record published before streaming)", closedAt)
	}
}

// TestWindowsCloseFillsMPKIs: Close derives both STLB MPKIs from the
// window's own deltas and records the status bit it is handed, or none.
func TestWindowsCloseFillsMPKIs(t *testing.T) {
	w := NewWindows(400, Counters{STLBDemandMissInstr: 10, STLBDemandMissData: 20})
	on := true
	w.Close(400, 800, Counters{STLBDemandMissInstr: 16, STLBDemandMissData: 21}, &on)
	w.Close(800, 900, Counters{STLBDemandMissInstr: 16, STLBDemandMissData: 23}, nil)
	recs := w.Records()
	if r := recs[0]; r.STLBMPKIInstr != 15 || r.STLBMPKIData != 2.5 {
		t.Errorf("window 0 MPKIs %v/%v, want 15/2.5", r.STLBMPKIInstr, r.STLBMPKIData)
	}
	if r := recs[0]; r.XPTPEnabled == nil || !*r.XPTPEnabled {
		t.Errorf("window 0 lost the xPTP bit: %+v", r)
	}
	if r := recs[1]; r.STLBMPKIInstr != 0 || r.STLBMPKIData != 5 || r.XPTPEnabled != nil {
		t.Errorf("window 1 = %+v, want MPKIs 0/5 and no xPTP bit", r)
	}
}

// TestWindowsRetentionAndSink: the sink sees every window while the
// sampler keeps only the newest 64, in order.
func TestWindowsRetentionAndSink(t *testing.T) {
	w := NewWindows(10, Counters{})
	var streamed []uint64
	w.SetSink(func(rec *WindowRecord) { streamed = append(streamed, rec.Window) })
	for i := uint64(1); i <= 70; i++ {
		w.Close(arch.Instr(i*10), arch.Cycle(i*10), Counters{}, nil)
	}
	if len(streamed) != 70 {
		t.Fatalf("sink saw %d windows, want all 70", len(streamed))
	}
	recs := w.Records()
	if len(recs) != 64 {
		t.Fatalf("retained %d records, want 64", len(recs))
	}
	if recs[0].Window != 6 || recs[63].Window != 69 {
		t.Fatalf("retained windows %d..%d, want 6..69", recs[0].Window, recs[63].Window)
	}
	// Deltas must still chain correctly across dropped records.
	if recs[63].Retired != 700 || recs[63].Instr != 10 {
		t.Fatalf("window 69 = %+v", recs[63])
	}
}

// TestWindowsCloseAllocFree: closing a window allocates nothing, whether
// or not a sink streams the records, and whatever the status bit. Close
// used to hand the sink a record of its own that escaped to the heap on
// every window.
func TestWindowsCloseAllocFree(t *testing.T) {
	for _, withSink := range []bool{false, true} {
		w := NewWindows(10, Counters{})
		var events uint64
		var streamed int
		if withSink {
			w.SetSink(func(*WindowRecord) { streamed++ })
		}
		var retired arch.Instr
		closeOne := func() {
			events += 3
			retired += 10
			on := retired%20 == 0
			w.Close(retired, arch.Cycle(retired), Counters{BranchMispredict: events}, &on)
		}
		for i := 0; i < 2*ringSize; i++ { // wrap the ring
			closeOne()
		}
		if n := testing.AllocsPerRun(100, closeOne); n != 0 {
			t.Errorf("sink %v: %v allocations per Close, want 0", withSink, n)
		}
		if withSink && streamed == 0 {
			t.Error("sink never ran")
		}
	}
}

func TestWindowsRecent(t *testing.T) {
	w := NewWindows(10, Counters{})
	if got := w.RecentString(3); !strings.Contains(got, "no windows") {
		t.Fatalf("empty RecentString = %q", got)
	}
	on := false
	for i := uint64(1); i <= 4; i++ {
		w.Close(arch.Instr(i*10), arch.Cycle(i*20), Counters{}, &on)
	}
	recent := w.Recent(2)
	if len(recent) != 2 || recent[0].Window != 2 || recent[1].Window != 3 {
		t.Fatalf("Recent(2) = %+v", recent)
	}
	if got := w.Recent(100); len(got) != 4 {
		t.Fatalf("Recent(100) = %d records, want 4", len(got))
	}
	s := w.RecentString(2)
	if !strings.Contains(s, "w2{") || !strings.Contains(s, "w3{") || !strings.Contains(s, " | ") || !strings.Contains(s, "xptp=false") {
		t.Fatalf("RecentString = %q", s)
	}
}

// TestWindowsConcurrentReaders mirrors the watchdog's access pattern: a
// supervisor goroutine reads recent history while the run loop closes
// windows. Meaningful under -race.
func TestWindowsConcurrentReaders(t *testing.T) {
	var c uint64
	w := NewWindows(10, Counters{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = w.Recent(5)
				_ = w.RecentString(3)
				_ = w.Closed()
			}
		}
	}()
	for i := uint64(1); i <= 500; i++ {
		c += 2
		w.Close(arch.Instr(i*10), arch.Cycle(i*12), Counters{L1IDemandMiss: c}, nil)
	}
	close(stop)
	wg.Wait()
	if w.Closed() != 500 {
		t.Fatalf("Closed = %d, want 500", w.Closed())
	}
}

func TestJSONLExport(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	if err := j.Manifest(Manifest{
		Tool:        "itpsim",
		Git:         "deadbeef",
		ConfigHash:  ConfigHash([]byte("cfg")),
		WindowInstr: 1000,
		Policies:    map[string]string{"stlb": "itp"},
		Workloads:   []string{"srv_000"},
	}); err != nil {
		t.Fatal(err)
	}
	w := NewWindows(1000, Counters{})
	w.SetSink(j.WindowSink("srv_000", nil))
	w.Close(1000, 4000, Counters{BranchMispredict: 3}, nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var man map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &man); err != nil {
		t.Fatal(err)
	}
	if man["type"] != "manifest" || man["tool"] != "itpsim" || man["window_instr"] != float64(1000) {
		t.Fatalf("manifest line = %v", man)
	}
	if len(man["config_hash"].(string)) != 64 {
		t.Fatalf("config hash = %v", man["config_hash"])
	}
	var win map[string]any
	if err := json.Unmarshal([]byte(lines[1]), &win); err != nil {
		t.Fatal(err)
	}
	if win["type"] != "window" || win["job"] != "srv_000" || win["retired"] != float64(1000) || win["ipc"] != 0.25 {
		t.Fatalf("window line = %v", win)
	}
	if c, _ := win["counters"].(map[string]any); len(c) != 9 || c["branch.mispredict"] != float64(3) {
		t.Fatalf("window counters = %v, want all nine by name", win["counters"])
	}
	if err := j.Err(); err != nil {
		t.Fatalf("healthy export reports %v", err)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ budget int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errShort
	}
	f.budget -= len(p)
	return len(p), nil
}

var errShort = &shortErr{}

type shortErr struct{}

func (*shortErr) Error() string { return "disk full" }

// TestWindowSinkStopsAfterError: a sink reports its first write error
// once and then stops writing; the export keeps that error for Err, so
// the run can still fail once the batch is done.
func TestWindowSinkStopsAfterError(t *testing.T) {
	j := NewJSONL(&failWriter{budget: 1})
	var calls int
	sink := j.WindowSink("job", func(error) { calls++ })
	rec := &WindowRecord{Window: 0}
	sink(rec)
	sink(rec)
	sink(rec)
	if calls != 1 {
		t.Fatalf("onErr called %d times, want exactly once", calls)
	}
	if err := j.Err(); err == nil {
		t.Fatal("Err() = nil after a failed write")
	}
}

func TestGitDescribeNeverEmpty(t *testing.T) {
	if GitDescribe() == "" {
		t.Fatal("GitDescribe must return a placeholder, not empty")
	}
}

// TestRebase: a reset that zeroes one counter's source mid-window (the
// warmup→measure statistics reset) must leave the open window's delta
// counting events on both sides of it, and must not disturb a counter
// whose source the reset leaves alone.
func TestRebase(t *testing.T) {
	// snap builds a snapshot with the zeroed counter in L2CDemandMiss and
	// the kept one in BranchMispredict.
	snap := func(zeroed, kept uint64) Counters {
		return Counters{L2CDemandMiss: zeroed, BranchMispredict: kept}
	}
	w := NewWindows(100, snap(0, 0))
	w.Close(100, 100, snap(4, 4), nil)
	w.Rebase(snap(10, 10), snap(0, 10)) // 6 events into window 1, then the reset
	w.Close(200, 200, snap(5, 15), nil) // 5 more after the reset
	w.Close(300, 300, snap(7, 17), nil)

	recs := w.Records()
	for i, want := range []uint64{4, 11, 2} {
		if got := recs[i].Counters.L2CDemandMiss; got != want {
			t.Errorf("window %d: zeroed delta %d, want %d", i, got, want)
		}
		if got := recs[i].Counters.BranchMispredict; got != want {
			t.Errorf("window %d: kept delta %d, want %d", i, got, want)
		}
	}
}

// TestPublishExpvarIdempotent: publishing a name twice does not panic,
// and /debug/vars reads the sampler published last under it — a retried
// run's, not its failed first attempt's.
func TestPublishExpvarIdempotent(t *testing.T) {
	const name = "itpsim.test.windows"
	read := func() []WindowRecord {
		t.Helper()
		v := expvar.Get(name)
		if v == nil {
			t.Fatal("expvar not published")
		}
		var recent []WindowRecord
		if err := json.Unmarshal([]byte(v.String()), &recent); err != nil {
			t.Fatal(err)
		}
		return recent
	}
	first := NewWindows(10, Counters{})
	first.Close(10, 20, Counters{}, nil)
	first.PublishExpvar(name)
	first.PublishExpvar(name) // second publish must not panic
	if recent := read(); len(recent) != 1 || recent[0].Retired != 10 {
		t.Fatalf("/debug/vars entry = %+v, want the one closed window", recent)
	}

	retry := NewWindows(10, Counters{})
	retry.Close(10, 20, Counters{}, nil)
	retry.Close(20, 40, Counters{}, nil)
	retry.PublishExpvar(name)
	if recent := read(); len(recent) != 2 || recent[1].Retired != 20 {
		t.Fatalf("/debug/vars entry = %+v, want the retry's two windows", recent)
	}
}

func TestSetXPTPEnabled(t *testing.T) {
	var a, b WindowRecord
	a.SetXPTPEnabled(true)
	b.SetXPTPEnabled(false)
	if a.XPTPEnabled == nil || !*a.XPTPEnabled || b.XPTPEnabled == nil || *b.XPTPEnabled {
		t.Fatalf("status bits = %v, %v", a.XPTPEnabled, b.XPTPEnabled)
	}
	if got := testing.AllocsPerRun(10, func() { a.SetXPTPEnabled(false) }); got != 0 {
		t.Fatalf("SetXPTPEnabled allocates %v times", got)
	}
}
