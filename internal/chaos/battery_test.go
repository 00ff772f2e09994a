// Package chaos_test runs the fault-injection battery: every fault class
// the chaos engine can inject is driven through the real simulator and
// supervision stack, and each scenario must either recover with a beacon
// chain identical to the fault-free run or fail with a structured error
// naming the injected fault. Every scenario is deadline-bounded so a
// recovery bug shows up as a test failure, not a hung CI job.
package chaos_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"itpsim/internal/chaos"
	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/trace"
	"itpsim/internal/workload"
)

const (
	batteryInstr  = 30_000 // instructions per scenario run
	batteryBeacon = 5_000  // beacon interval → 6 beacons per run
)

func batterySpec() workload.Stream {
	return workload.NewSpec(workload.SpecParams{
		Seed: 7, CodePages: 4, LoopLen: 64, LoopIters: 100,
		DataPages: 512, DataZipf: 1.2, LoadFrac: 0.25, StoreFrac: 0.1,
		StreamFrac: 0.2, ReuseFrac: 0.3,
	})
}

func fastOpts() harness.Options {
	return harness.Options{
		Parallelism: 2,
		Backoff:     time.Millisecond,
		MaxBackoff:  5 * time.Millisecond,
		KillGrace:   500 * time.Millisecond,
	}
}

// recordTrace captures the battery workload as a gzip trace, the on-disk
// form the read-fault scenarios tear mid-stream.
func recordTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Record(w, batterySpec(), batteryInstr); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceJob replays a trace through a beaconed machine; source lets each
// attempt choose its own (possibly faulted) reader.
func traceJob(key string, source func(attempt int) io.Reader) harness.Job[*stats.Sim] {
	return harness.Job[*stats.Sim]{
		Key: key,
		Run: func(jc *harness.JobContext) (*stats.Sim, error) {
			m, err := sim.NewMachine(config.Default())
			if err != nil {
				return nil, harness.Permanent(err)
			}
			m.EnableBeacons(batteryBeacon)
			jc.Attach(m)
			r, err := trace.NewReader(source(jc.Attempt()))
			if err != nil {
				return nil, err
			}
			defer r.Close()
			res, err := m.Run([]workload.Stream{r}, batteryInstr)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		},
	}
}

// faultFreeStamp establishes the reference beacon chain for a trace.
func faultFreeStamp(t *testing.T, traceBytes []byte) harness.BeaconStamp {
	t.Helper()
	job := traceJob("reference", func(int) io.Reader { return bytes.NewReader(traceBytes) })
	outs, err := harness.RunAll(fastOpts(), []harness.Job[*stats.Sim]{job})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Beacon == nil {
		t.Fatal("reference run must carry a beacon stamp")
	}
	return *outs[0].Beacon
}

// TestBatteryTransientReadFaultRecovers: the first attempt's trace reader
// dies mid-stream; the retry reads clean bytes and must land on the
// fault-free beacon chain — proof the failed attempt left no residue.
func TestBatteryTransientReadFaultRecovers(t *testing.T) {
	traceBytes := recordTrace(t)
	want := faultFreeStamp(t, traceBytes)

	o := fastOpts()
	o.Retries = 2
	job := traceJob("transient-read", func(attempt int) io.Reader {
		r := io.Reader(bytes.NewReader(traceBytes))
		if attempt == 0 {
			r = chaos.FailAfter(r, int64(len(traceBytes)/2))
		}
		return r
	})
	outs, err := harness.RunAll(o, []harness.Job[*stats.Sim]{job})
	if err != nil {
		t.Fatalf("transient fault must be absorbed by retry: %v", err)
	}
	if outs[0].Beacon == nil || *outs[0].Beacon != want {
		t.Errorf("recovered run stamp %+v, want fault-free %+v", outs[0].Beacon, want)
	}
}

// TestBatteryPermanentReadFaultIsStructured: when every attempt faults,
// the campaign must fail with the injected *chaos.Error still intact in
// the chain — not a stringified or swallowed version.
func TestBatteryPermanentReadFaultIsStructured(t *testing.T) {
	traceBytes := recordTrace(t)
	o := fastOpts()
	o.Retries = 1
	job := traceJob("permanent-read", func(int) io.Reader {
		return chaos.FailAfter(bytes.NewReader(traceBytes), int64(len(traceBytes)/3))
	})
	_, err := harness.RunAll(o, []harness.Job[*stats.Sim]{job})
	var ce *chaos.Error
	if !errors.As(err, &ce) {
		t.Fatalf("want the injected *chaos.Error in the chain, got: %v", err)
	}
	if ce.Kind != chaos.ReadFault {
		t.Errorf("fault kind = %v, want ReadFault", ce.Kind)
	}
}

// runMetricsTo drives one beaconed, instrumented run whose window records
// stream to the given JSONL writer, returning the machine's chain.
func runMetricsTo(t *testing.T, w io.Writer, onErr func(error)) (chain, count uint64) {
	t.Helper()
	m, err := sim.NewMachine(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	m.EnableBeacons(batteryBeacon)
	ws := m.InstrumentMetrics(0)
	ws.SetSink(metrics.NewJSONL(w).WindowSink("battery", onErr))
	if _, err := m.Run([]workload.Stream{batterySpec()}, batteryInstr); err != nil {
		t.Fatal(err)
	}
	return m.BeaconChain()
}

// TestBatteryTornMetricsWriteDoesNotPerturbSim: a metrics sink that tears
// mid-line is an observability failure, not a simulation failure — the
// run must complete, report the tear through onErr, and produce exactly
// the beacon chain of a run with a healthy sink.
func TestBatteryTornMetricsWriteDoesNotPerturbSim(t *testing.T) {
	var clean bytes.Buffer
	wantChain, wantCount := runMetricsTo(t, &clean, func(err error) { t.Errorf("clean sink errored: %v", err) })

	var torn bytes.Buffer
	var sinkErrs []error
	chain, count := runMetricsTo(t, chaos.TornAfter(&torn, int64(clean.Len()/2)),
		func(err error) { sinkErrs = append(sinkErrs, err) })

	if chain != wantChain || count != wantCount {
		t.Errorf("torn sink perturbed the simulation: chain %016x/%d, want %016x/%d",
			chain, count, wantChain, wantCount)
	}
	if len(sinkErrs) == 0 {
		t.Fatal("the tear must be reported through onErr, not swallowed")
	}
	var ce *chaos.Error
	if !errors.As(sinkErrs[0], &ce) || ce.Kind != chaos.TornWrite {
		t.Errorf("sink error should carry the injected fault, got: %v", sinkErrs[0])
	}
}

// TestBatteryDecodeAheadStallKilled: an ingestion source that blocks
// inside the decode-ahead path must be caught by the watchdog and killed
// within its sampling budget, yielding a stall report with a snapshot.
func TestBatteryDecodeAheadStallKilled(t *testing.T) {
	o := fastOpts()
	o.WatchdogInterval = 10 * time.Millisecond
	o.WatchdogSamples = 3
	stall := workload.NewStallStream(batterySpec(), 10_000, 5*time.Second)
	job := harness.Job[*stats.Sim]{
		Key: "decode-stall",
		Run: func(jc *harness.JobContext) (*stats.Sim, error) {
			m, err := sim.NewMachine(config.Default())
			if err != nil {
				return nil, harness.Permanent(err)
			}
			m.EnableBeacons(batteryBeacon)
			jc.Attach(m)
			stall.Bind(jc.Context())
			res, err := m.Run([]workload.Stream{workload.Prefetch(stall)}, 10_000_000)
			if err != nil {
				return nil, err
			}
			return res.Stats, nil
		},
	}
	start := time.Now()
	_, err := harness.RunAll(o, []harness.Job[*stats.Sim]{job})
	var se *harness.StallError
	if !errors.As(err, &se) {
		t.Fatalf("want StallError from the watchdog, got: %v", err)
	}
	if se.Snapshot == "" {
		t.Error("stall report must carry a machine snapshot")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("stall detection took %v; the watchdog must bound it", elapsed)
	}
}

// resumeAfter corrupts a finished campaign's journal with damage, reruns
// the campaign, and asserts every job lands on its original beacon chain.
func resumeAfter(t *testing.T, damage func(path string)) {
	t.Helper()
	traceBytes := recordTrace(t)
	ckpt := filepath.Join(t.TempDir(), "battery.ckpt")
	jobs := func() []harness.Job[*stats.Sim] {
		return []harness.Job[*stats.Sim]{
			traceJob("quad-a", func(int) io.Reader { return bytes.NewReader(traceBytes) }),
			traceJob("quad-b", func(int) io.Reader { return bytes.NewReader(traceBytes) }),
		}
	}
	o := fastOpts()
	o.Checkpoint = ckpt
	outs, err := harness.RunAll(o, jobs())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]harness.BeaconStamp{}
	for i, out := range outs {
		if out.Beacon == nil {
			t.Fatalf("job %d missing beacon stamp", i)
		}
		want[[...]string{"quad-a", "quad-b"}[i]] = *out.Beacon
	}

	damage(ckpt)

	outs, err = harness.RunAll(o, jobs())
	if err != nil {
		t.Fatalf("resume over a damaged journal must recover: %v", err)
	}
	rerun := 0
	for i, out := range outs {
		key := [...]string{"quad-a", "quad-b"}[i]
		if !out.Cached {
			rerun++
		}
		if out.Beacon == nil || *out.Beacon != want[key] {
			t.Errorf("%s: resumed stamp %+v, want original %+v", key, out.Beacon, want[key])
		}
	}
	if rerun == 0 {
		t.Error("damage dropped no journal records; the scenario proved nothing")
	}
}

// TestBatteryCheckpointBitFlipResumes: a flipped bit in a journal record
// must be caught by its CRC; the affected jobs re-run and reproduce their
// original beacon chains exactly.
func TestBatteryCheckpointBitFlipResumes(t *testing.T) {
	resumeAfter(t, func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		header := int64(bytes.IndexByte(data, '\n') + 1)
		if _, err := chaos.FlipBitAfter(path, chaos.NewRNG(21), header); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatteryCheckpointTruncationResumes: a journal torn mid-append (the
// crash-during-write case) must recover to its valid prefix and re-run
// whatever the tail lost.
func TestBatteryCheckpointTruncationResumes(t *testing.T) {
	resumeAfter(t, func(path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Tear inside the record region so at least one record is lost.
		header := int64(0)
		if data, err := os.ReadFile(path); err == nil {
			header = int64(bytes.IndexByte(data, '\n') + 1)
		}
		if err := os.Truncate(path, header+(fi.Size()-header)/2); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBatterySlowConsumerBackpressure: a sink that dawdles on every write
// must not corrupt or drop window records — the run completes and the
// JSONL output holds one well-formed line per closed window.
func TestBatterySlowConsumerBackpressure(t *testing.T) {
	var clean bytes.Buffer
	wantChain, _ := runMetricsTo(t, &clean, func(err error) { t.Errorf("clean sink: %v", err) })
	wantLines := strings.Count(clean.String(), "\n")

	var slow bytes.Buffer
	delays := 0
	chain, _ := runMetricsTo(t, chaos.Slow(&slow, func() {
		delays++
		time.Sleep(50 * time.Microsecond)
	}), func(err error) { t.Errorf("slow sink errored: %v", err) })

	if chain != wantChain {
		t.Errorf("slow consumer perturbed the simulation: chain %016x, want %016x", chain, wantChain)
	}
	gotLines := strings.Count(slow.String(), "\n")
	if gotLines != wantLines || gotLines == 0 {
		t.Errorf("slow sink wrote %d lines, clean sink wrote %d; backpressure lost records", gotLines, wantLines)
	}
	if delays == 0 {
		t.Error("delay hook never ran; the fault was not injected")
	}
	if !bytes.Equal(slow.Bytes(), clean.Bytes()) {
		t.Error("slow sink output diverged from clean sink output")
	}
}
