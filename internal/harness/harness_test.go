package harness_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// fastOpts returns supervisor options tuned for sub-second tests.
func fastOpts() harness.Options {
	return harness.Options{
		Parallelism: 4,
		Backoff:     time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		KillGrace:   500 * time.Millisecond,
	}
}

func TestPanicContainedAndPartialResults(t *testing.T) {
	jobs := []harness.Job[int]{
		{Key: "ok-1", Run: func(*harness.JobContext) (int, error) { return 1, nil }},
		{Key: "boom", Run: func(*harness.JobContext) (int, error) { panic("injected kaboom") }},
		{Key: "ok-2", Run: func(*harness.JobContext) (int, error) { return 2, nil }},
	}
	outs, err := harness.RunAll(fastOpts(), jobs)
	if err == nil {
		t.Fatal("batch with a panicking job must report an error")
	}
	var pe *harness.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("joined error should contain a PanicError, got: %v", err)
	}
	if !strings.Contains(pe.Error(), "injected kaboom") || !strings.Contains(pe.Error(), "harness_test") {
		t.Errorf("panic error should carry the value and a stack, got: %v", pe)
	}
	if outs[0].Result != 1 || outs[0].Err != nil || outs[2].Result != 2 || outs[2].Err != nil {
		t.Errorf("healthy jobs must complete despite the panic: %+v", outs)
	}
	if outs[1].Err == nil {
		t.Error("panicking job should carry its error in the outcome")
	}
}

func TestRetryThenSucceed(t *testing.T) {
	var attempts atomic.Int32
	o := fastOpts()
	o.Retries = 3
	job := harness.Job[string]{
		Key: "flaky",
		Run: func(jc *harness.JobContext) (string, error) {
			if attempts.Add(1) <= 2 {
				return "", fmt.Errorf("transient failure %d", attempts.Load())
			}
			return "done", nil
		},
	}
	outs, err := harness.RunAll(o, []harness.Job[string]{job})
	if err != nil {
		t.Fatalf("flaky job should succeed within retry budget: %v", err)
	}
	if outs[0].Result != "done" || outs[0].Attempts != 3 {
		t.Errorf("got result %q after %d attempts, want \"done\" after 3", outs[0].Result, outs[0].Attempts)
	}
}

func TestRetriesExhausted(t *testing.T) {
	o := fastOpts()
	o.Retries = 2
	var n atomic.Int32
	outs, err := harness.RunAll(o, []harness.Job[int]{{
		Key: "always-bad",
		Run: func(*harness.JobContext) (int, error) { n.Add(1); return 0, errors.New("still broken") },
	}})
	if err == nil {
		t.Fatal("exhausted retries must fail the job")
	}
	if got := n.Load(); got != 3 {
		t.Errorf("job ran %d times, want 3 (1 + 2 retries)", got)
	}
	if outs[0].Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", outs[0].Attempts)
	}
}

func TestPermanentErrorNotRetried(t *testing.T) {
	o := fastOpts()
	o.Retries = 5
	var n atomic.Int32
	_, err := harness.RunAll(o, []harness.Job[int]{{
		Key: "hopeless",
		Run: func(*harness.JobContext) (int, error) {
			n.Add(1)
			return 0, harness.Permanent(errors.New("unknown workload"))
		},
	}})
	if err == nil {
		t.Fatal("permanent failure must surface")
	}
	if got := n.Load(); got != 1 {
		t.Errorf("permanent error retried %d times, want to run exactly once", got)
	}
}

func TestPanicNotRetried(t *testing.T) {
	o := fastOpts()
	o.Retries = 5
	var n atomic.Int32
	_, err := harness.RunAll(o, []harness.Job[int]{{
		Key: "deterministic-panic",
		Run: func(*harness.JobContext) (int, error) { n.Add(1); panic("same panic every time") },
	}})
	if err == nil {
		t.Fatal("panic must surface")
	}
	if got := n.Load(); got != 1 {
		t.Errorf("panic retried %d times; deterministic panics should not burn retries", got)
	}
}

// slowMachine builds a real simulator on an endless workload, the
// substrate for deadline and watchdog tests.
func machineJob(t *testing.T, key string, stream workload.Stream, budget uint64) harness.Job[*stats.Sim] {
	t.Helper()
	return harness.Job[*stats.Sim]{
		Key: key,
		Run: func(jc *harness.JobContext) (*stats.Sim, error) {
			m, err := sim.NewMachine(config.Default())
			if err != nil {
				return nil, harness.Permanent(err)
			}
			jc.Attach(m)
			if ss, ok := stream.(*workload.StallStream); ok {
				ss.Bind(jc.Context())
			}
			res, err := m.Run([]workload.Stream{stream}, budget)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		},
	}
}

func specStream() workload.Stream {
	return workload.NewSpec(workload.SpecParams{
		Seed: 7, CodePages: 4, LoopLen: 64, LoopIters: 100,
		DataPages: 512, DataZipf: 1.2, LoadFrac: 0.25, StoreFrac: 0.1,
		StreamFrac: 0.2, ReuseFrac: 0.3,
	})
}

func TestDeadlineExpiry(t *testing.T) {
	o := fastOpts()
	o.JobTimeout = 50 * time.Millisecond
	// A budget far beyond what 50ms can simulate.
	job := machineJob(t, "deadline", specStream(), 2_000_000_000)
	outs, err := harness.RunAll(o, []harness.Job[*stats.Sim]{job})
	if err == nil {
		t.Fatal("job exceeding its deadline must fail")
	}
	var te *harness.TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want TimeoutError, got: %v", err)
	}
	if !strings.Contains(te.Snapshot, "progress=") {
		t.Errorf("timeout should carry a diagnostic snapshot, got: %q", te.Snapshot)
	}
	if outs[0].Attempts != 1 {
		t.Errorf("deadline kill retried: %d attempts", outs[0].Attempts)
	}
}

func TestWatchdogKillsStalledRun(t *testing.T) {
	o := fastOpts()
	o.WatchdogInterval = 10 * time.Millisecond
	o.WatchdogSamples = 3
	// The stream feeds 100K instructions (enough to cross a diagnostic
	// publish boundary at 64K) then hangs like a dead trace pipe; the
	// auto-release bounds the leak if the kill path were broken.
	stall := workload.NewStallStream(specStream(), 100_000, 5*time.Second)
	job := machineJob(t, "stalled", stall, 2_000_000_000)
	start := time.Now()
	_, err := harness.RunAll(o, []harness.Job[*stats.Sim]{job})
	if err == nil {
		t.Fatal("stalled job must be killed by the watchdog")
	}
	var se *harness.StallError
	if !errors.As(err, &se) {
		t.Fatalf("want StallError, got: %v", err)
	}
	if se.Progress == 0 {
		t.Error("watchdog should have observed pre-stall progress")
	}
	if !strings.Contains(se.Snapshot, "stlb-mshrs=") || !strings.Contains(se.Snapshot, "l2c-occ") {
		t.Errorf("stall snapshot should dump occupancy state, got: %q", se.Snapshot)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("watchdog kill took %v; the auto-release fallback must not be the mechanism", elapsed)
	}
}

func TestWatchdogToleratesProgress(t *testing.T) {
	o := fastOpts()
	// Progress is published once per 1024 retires. Under the race
	// detector and GC on a loaded host one such gap can outlast a 10 ms
	// window, so the kill window is 150 ms; the run still spans several
	// of them, many under -race.
	o.WatchdogInterval = 50 * time.Millisecond
	o.WatchdogSamples = 3
	// A healthy run longer than several watchdog windows must not be
	// killed while it keeps retiring.
	job := machineJob(t, "healthy", specStream(), 3_000_000)
	outs, err := harness.RunAll(o, []harness.Job[*stats.Sim]{job})
	if err != nil {
		t.Fatalf("healthy job was killed: %v", err)
	}
	if outs[0].Result.TotalInstructions() != 3_000_000 {
		t.Errorf("retired %d instructions, want the full budget", outs[0].Result.TotalInstructions())
	}
}

func TestCheckpointResumeSkipsCompleted(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	o := fastOpts()
	o.Checkpoint = ckpt

	var runs atomic.Int32
	mk := func(fail bool) []harness.Job[int] {
		return []harness.Job[int]{
			{Key: "a", Run: func(*harness.JobContext) (int, error) { runs.Add(1); return 10, nil }},
			{Key: "b", Run: func(*harness.JobContext) (int, error) {
				runs.Add(1)
				if fail {
					return 0, harness.Permanent(errors.New("injected"))
				}
				return 20, nil
			}},
			{Key: "c", Run: func(*harness.JobContext) (int, error) { runs.Add(1); return 30, nil }},
		}
	}

	outs, err := harness.RunAll(o, mk(true))
	if err == nil {
		t.Fatal("first pass must report the injected failure")
	}
	if runs.Load() != 3 {
		t.Fatalf("first pass ran %d jobs, want 3", runs.Load())
	}
	if outs[0].Result != 10 || outs[2].Result != 30 {
		t.Fatalf("healthy results missing: %+v", outs)
	}

	// Second pass: completed jobs come from the journal, only the failed
	// one re-executes (now healthy).
	runs.Store(0)
	outs, err = harness.RunAll(o, mk(false))
	if err != nil {
		t.Fatalf("resumed pass should succeed: %v", err)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("resumed pass re-ran %d jobs, want only the previously failed one", got)
	}
	if !outs[0].Cached || !outs[2].Cached || outs[1].Cached {
		t.Errorf("cache flags wrong: %+v", outs)
	}
	if outs[0].Result != 10 || outs[1].Result != 20 || outs[2].Result != 30 {
		t.Errorf("resumed results wrong: %+v", outs)
	}
}

func TestCheckpointSurvivesTornWrite(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	o := fastOpts()
	o.Checkpoint = ckpt
	if _, err := harness.RunAll(o, []harness.Job[int]{
		{Key: "good", Run: func(*harness.JobContext) (int, error) { return 42, nil }},
	}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: a torn half line at the tail.
	f, err := os.OpenFile(ckpt, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"torn","resu`)
	f.Close()

	var ran atomic.Int32
	outs, err := harness.RunAll(o, []harness.Job[int]{
		{Key: "good", Run: func(*harness.JobContext) (int, error) { ran.Add(1); return 0, nil }},
		{Key: "torn", Run: func(*harness.JobContext) (int, error) { ran.Add(1); return 7, nil }},
	})
	if err != nil {
		t.Fatalf("torn journal must not poison the batch: %v", err)
	}
	if !outs[0].Cached || outs[0].Result != 42 {
		t.Errorf("intact entry should be recalled: %+v", outs[0])
	}
	if outs[1].Cached || outs[1].Result != 7 {
		t.Errorf("torn entry should re-run: %+v", outs[1])
	}
}

func TestStreamErrorSurfaces(t *testing.T) {
	// An erroring ingestion source (e.g. a corrupt trace) must fail the
	// job instead of silently truncating the simulation.
	bad := workload.NewErrorStream(specStream(), 10_000, nil)
	job := machineJob(t, "bad-ingest", bad, 1_000_000)
	_, err := harness.RunAll(fastOpts(), []harness.Job[*stats.Sim]{job})
	if err == nil || !errors.Is(err, workload.ErrInjected) {
		t.Fatalf("stream error should surface through the batch, got: %v", err)
	}
}
