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
	if got := NewWindows(0).Size(); got != DefaultWindow {
		t.Fatalf("default size = %d, want %d", got, DefaultWindow)
	}
	if got := NewWindows(500).Size(); got != 500 {
		t.Fatalf("size = %d, want 500", got)
	}
}

func TestWindowsDeltasAndIPC(t *testing.T) {
	miss := uint64(5) // pre-run value must not leak into the first window

	w := NewWindows(1000)
	w.Track("miss", func() uint64 { return miss })

	miss += 7
	w.Close(1000, 2000, nil)
	miss += 3
	w.Close(2000, 2500, nil)

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
	if r0.Counters["miss"] != 7 {
		t.Fatalf("window 0 miss delta = %d, want 7 (pre-run value leaked)", r0.Counters["miss"])
	}
	if r1.Window != 1 || r1.Instr != 1000 || r1.Cycles != 500 || r1.IPC != 2.0 {
		t.Fatalf("window 1 = %+v", r1)
	}
	if r1.Counters["miss"] != 3 {
		t.Fatalf("window 1 miss delta = %d, want 3", r1.Counters["miss"])
	}
	if w.Closed() != 2 {
		t.Fatalf("Closed = %d, want 2", w.Closed())
	}
}

// TestWindowsSinkRunsOutsideLock is the regression test for streaming
// under w.mu: a sink that re-enters the Windows (Recent/Closed for
// context, as a stall diagnostic would) used to deadlock because Close
// called it with the lock held. It must also still observe the
// annotated record, and observe it before the next Close.
func TestWindowsSinkRunsOutsideLock(t *testing.T) {
	w := NewWindows(100)
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
	annotate := func(rec *WindowRecord) { rec.STLBMPKIInstr = 7 }
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Close(100, 200, annotate)
		w.Close(200, 400, annotate)
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
			t.Errorf("sink record %d missed the annotation: %+v", i, rec)
		}
	}
	if closedAt[0] != 1 || closedAt[1] != 2 {
		t.Errorf("Closed() from sink = %v, want [1 2] (record published before streaming)", closedAt)
	}
}

func TestWindowsAnnotate(t *testing.T) {
	w := NewWindows(100)
	enabled := true
	w.Close(100, 100, func(rec *WindowRecord) {
		rec.STLBMPKIInstr = 1.5
		rec.XPTPEnabled = &enabled
	})
	recs := w.Records()
	if recs[0].STLBMPKIInstr != 1.5 {
		t.Fatalf("annotate lost MPKI: %+v", recs[0])
	}
	if recs[0].XPTPEnabled == nil || !*recs[0].XPTPEnabled {
		t.Fatalf("annotate lost xPTP bit: %+v", recs[0])
	}
}

func TestWindowsRetentionAndSink(t *testing.T) {
	w := NewWindows(10)
	var streamed []uint64
	w.SetSink(func(rec *WindowRecord) { streamed = append(streamed, rec.Window) })
	w.SetRetain(3)
	for i := uint64(1); i <= 8; i++ {
		w.Close(arch.Instr(i*10), arch.Cycle(i*10), nil)
	}
	if len(streamed) != 8 {
		t.Fatalf("sink saw %d windows, want all 8", len(streamed))
	}
	recs := w.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	if recs[0].Window != 5 || recs[2].Window != 7 {
		t.Fatalf("retained windows %d..%d, want 5..7", recs[0].Window, recs[2].Window)
	}
	// Deltas must still chain correctly across dropped records.
	if recs[2].Retired != 80 || recs[2].Instr != 10 {
		t.Fatalf("window 7 = %+v", recs[2])
	}
}

// TestWindowsCloseAllocFree: once a retained ring is full, closing a
// window allocates nothing, whether or not a sink streams the records.
// Close used to hand the sink a record of its own that escaped to the
// heap on every window.
func TestWindowsCloseAllocFree(t *testing.T) {
	for _, withSink := range []bool{false, true} {
		w := NewWindows(10)
		var events uint64
		w.Track("events", func() uint64 { return events })
		w.SetRetain(4)
		var streamed int
		if withSink {
			w.SetSink(func(*WindowRecord) { streamed++ })
		}
		var retired arch.Instr
		closeOne := func() {
			events += 3
			retired += 10
			w.Close(retired, arch.Cycle(retired), nil)
		}
		for i := 0; i < 8; i++ { // fill the ring and its counter maps
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
	w := NewWindows(10)
	if got := w.RecentString(3); !strings.Contains(got, "no windows") {
		t.Fatalf("empty RecentString = %q", got)
	}
	for i := uint64(1); i <= 4; i++ {
		w.Close(arch.Instr(i*10), arch.Cycle(i*20), nil)
	}
	recent := w.Recent(2)
	if len(recent) != 2 || recent[0].Window != 2 || recent[1].Window != 3 {
		t.Fatalf("Recent(2) = %+v", recent)
	}
	if got := w.Recent(100); len(got) != 4 {
		t.Fatalf("Recent(100) = %d records, want 4", len(got))
	}
	s := w.RecentString(2)
	if !strings.Contains(s, "w2{") || !strings.Contains(s, "w3{") || !strings.Contains(s, " | ") {
		t.Fatalf("RecentString = %q", s)
	}
}

// TestWindowsConcurrentReaders mirrors the watchdog's access pattern: a
// supervisor goroutine reads recent history while the run loop closes
// windows. Meaningful under -race.
func TestWindowsConcurrentReaders(t *testing.T) {
	var c uint64
	w := NewWindows(10)
	w.Track("x", func() uint64 { return c })
	w.SetRetain(8)

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
		w.Close(arch.Instr(i*10), arch.Cycle(i*12), nil)
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
	w := NewWindows(1000)
	w.SetSink(j.WindowSink("srv_000", nil))
	w.Close(1000, 4000, nil)

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
	var zeroed, kept uint64
	w := NewWindows(100)
	w.Track("zeroed", func() uint64 { return zeroed })
	w.Track("kept", func() uint64 { return kept })

	zeroed, kept = 4, 4
	w.Close(100, 100, nil)
	zeroed, kept = 10, 10 // 6 events into window 1
	w.Rebase(func() { zeroed = 0 })
	zeroed, kept = 5, 15 // 5 more after the reset
	w.Close(200, 200, nil)
	zeroed, kept = 7, 17
	w.Close(300, 300, nil)

	recs := w.Records()
	for i, want := range []uint64{4, 11, 2} {
		if got := recs[i].Counters["zeroed"]; got != want {
			t.Errorf("window %d: zeroed delta %d, want %d", i, got, want)
		}
		if got := recs[i].Counters["kept"]; got != want {
			t.Errorf("window %d: kept delta %d, want %d", i, got, want)
		}
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	w := NewWindows(10)
	w.Close(10, 20, nil)
	const name = "itpsim.test.windows"
	w.PublishExpvar(name)
	w.PublishExpvar(name) // second publish must not panic
	v := expvar.Get(name)
	if v == nil {
		t.Fatal("expvar not published")
	}
	var recent []WindowRecord
	if err := json.Unmarshal([]byte(v.String()), &recent); err != nil {
		t.Fatal(err)
	}
	if len(recent) != 1 || recent[0].Retired != 10 {
		t.Fatalf("/debug/vars entry = %s, want the one closed window", v.String())
	}
}

// TestWindowsRetainChangeMidRun: changing the retention cap after the
// ring has wrapped keeps the newest records, in order, under the new cap.
func TestWindowsRetainChangeMidRun(t *testing.T) {
	w := NewWindows(10)
	w.SetRetain(3)
	for i := uint64(1); i <= 5; i++ { // windows 0..4; the ring has wrapped
		w.Close(arch.Instr(i*10), arch.Cycle(i*10), nil)
	}
	w.SetRetain(2)
	w.Close(60, 60, nil)
	if recs := w.Records(); len(recs) != 2 || recs[0].Window != 4 || recs[1].Window != 5 {
		t.Fatalf("after shrinking to 2: %+v", recs)
	}
	w.SetRetain(0) // unbounded from here on
	w.Close(70, 70, nil)
	w.Close(80, 80, nil)
	recs := w.Records()
	if len(recs) != 4 || recs[0].Window != 4 || recs[3].Window != 7 {
		t.Fatalf("after lifting the cap: %+v", recs)
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
