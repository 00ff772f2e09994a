package sim

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itpsim/internal/audit"
	"itpsim/internal/config"
	"itpsim/internal/metrics"
	"itpsim/internal/tlb"
	"itpsim/internal/workload"
)

// collectBeacons runs streams on a fresh machine with a sink attached and
// returns the full beacon stream.
func collectBeacons(t *testing.T, cfg config.SystemConfig, streams []workload.Stream, interval, warmup, measure uint64) []Beacon {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableBeacons(interval)
	var got []Beacon
	m.SetBeaconSink(func(b Beacon) { got = append(got, b) })
	if _, err := m.RunWarmup(streams, warmup, measure); err != nil {
		t.Fatal(err)
	}
	chain, count := m.BeaconChain()
	if count != uint64(len(got)) {
		t.Fatalf("BeaconChain count %d, sink saw %d", count, len(got))
	}
	if len(got) > 0 && chain != got[len(got)-1].Chain {
		t.Fatalf("BeaconChain %016x, last beacon chain %016x", chain, got[len(got)-1].Chain)
	}
	return got
}

func TestBeaconEmissionSchedule(t *testing.T) {
	got := collectBeacons(t, testConfig(), []workload.Stream{&endless{}}, 1000, 0, 10_000)
	if len(got) != 10 {
		t.Fatalf("10K instructions at interval 1000 should emit 10 beacons, got %d", len(got))
	}
	for i, b := range got {
		if b.Seq != uint64(i) {
			t.Errorf("beacon %d: seq %d", i, b.Seq)
		}
		if uint64(b.Retired) != uint64(i+1)*1000 {
			t.Errorf("beacon %d: retired %d, want %d (single-thread retires cross each boundary exactly)",
				i, b.Retired, (i+1)*1000)
		}
	}
	if !strings.Contains(got[0].String(), "beacon{seq=0") {
		t.Errorf("String format: %s", got[0].String())
	}
}

func TestBeaconIntervalDefaultsToMetricsWindow(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.BeaconInterval(); got != 0 {
		t.Fatalf("beacons should be off by default, interval = %d", got)
	}
	m.InstrumentMetrics(2500)
	m.EnableBeacons(0)
	if got := m.BeaconInterval(); got != 2500 {
		t.Errorf("interval 0 should align to the attached metrics window, got %d", got)
	}

	m2, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m2.EnableBeacons(0)
	if got := m2.BeaconInterval(); got != metrics.DefaultWindow {
		t.Errorf("interval 0 without metrics should fall back to DefaultWindow, got %d", got)
	}
}

func TestBeaconStreamsDeterministic(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	a := collectBeacons(t, testConfig(), []workload.Stream{spec.NewStream()}, 1000, 5_000, 20_000)
	b := collectBeacons(t, testConfig(), []workload.Stream{spec.NewStream()}, 1000, 5_000, 20_000)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("beacon counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("beacon %d diverged:\n  run A: %s\n  run B: %s", i, a[i], b[i])
		}
	}
}

func TestBeaconsDetectDivergence(t *testing.T) {
	// Identical machines, workloads differing only in one stream seed:
	// their chains must part ways (a fingerprint that cannot tell two
	// different executions apart proves nothing).
	cat := workload.NewCatalog(4, 2)
	s0, err := cat.Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := cat.Get("srv_001")
	if err != nil {
		t.Fatal(err)
	}
	a := collectBeacons(t, testConfig(), []workload.Stream{s0.NewStream()}, 1000, 0, 10_000)
	b := collectBeacons(t, testConfig(), []workload.Stream{s1.NewStream()}, 1000, 0, 10_000)
	if a[len(a)-1].Chain == b[len(b)-1].Chain {
		t.Error("different workloads produced identical beacon chains")
	}
}

// TestBeaconIngestionEquivalence is the decode-ahead equivalence proof:
// the same instruction sequence fed directly and through the Prefetched
// decode-ahead pipeline must drive the machine through identical states
// at every beacon boundary.
func TestBeaconIngestionEquivalence(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	direct := collectBeacons(t, testConfig(), []workload.Stream{spec.NewStream()}, 1000, 5_000, 20_000)
	pf := workload.Prefetch(spec.NewStream())
	defer pf.Close()
	ahead := collectBeacons(t, testConfig(), []workload.Stream{pf}, 1000, 5_000, 20_000)
	if len(direct) == 0 || len(direct) != len(ahead) {
		t.Fatalf("beacon counts differ: direct %d, decode-ahead %d", len(direct), len(ahead))
	}
	for i := range direct {
		if direct[i] != ahead[i] {
			t.Fatalf("ingestion modes diverged at beacon %d:\n  direct:      %s\n  decode-ahead: %s",
				i, direct[i], ahead[i])
		}
	}
}

// goldenBeacon locks one quadrant's final beacon chain.
type goldenBeacon struct {
	Chain string `json:"chain"`
	Count uint64 `json:"count"`
}

const goldenBeaconPath = "testdata/beacons.json"

// TestGoldenBeacons locks the beacon chains of the four policy quadrants
// to a golden file. Because this test runs both with and without -race in
// CI (make race vs cover-check), a fixed golden chain is also the
// race-vs-norace equivalence proof: both build modes must drive the
// machine through identical states at every boundary.
func TestGoldenBeacons(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]goldenBeacon, len(goldenCases))
	for _, tc := range goldenCases {
		cfg := config.Default()
		cfg.STLBPolicy = tc.stlb
		cfg.L2CPolicy = tc.l2c
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.EnableBeacons(0)
		if _, err := m.RunWarmup([]workload.Stream{spec.NewStream()}, 50_000, 100_000); err != nil {
			t.Fatal(err)
		}
		chain, count := m.BeaconChain()
		got[tc.name] = goldenBeacon{Chain: hex16(chain), Count: count}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenBeaconPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenBeaconPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenBeaconPath)
		return
	}

	data, err := os.ReadFile(goldenBeaconPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestGoldenBeacons -update` to create it)", err)
	}
	var want map[string]goldenBeacon
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range goldenCases {
		w, ok := want[tc.name]
		if !ok {
			t.Errorf("%s: missing from golden beacon file (rerun with -update)", tc.name)
			continue
		}
		if got[tc.name] != w {
			t.Errorf("%s: beacon chain %+v, golden %+v — the simulator's state evolution changed (rerun with -update if deliberate)",
				tc.name, got[tc.name], w)
		}
	}
}

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

func TestRecentBeaconsRing(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.RecentBeacons(4); got != nil {
		t.Fatalf("no beacons yet, got %v", got)
	}
	m.EnableBeacons(100)
	if _, err := m.Run([]workload.Stream{&endless{}}, 10_000); err != nil {
		t.Fatal(err)
	}
	recent := m.RecentBeacons(4)
	if len(recent) != 4 {
		t.Fatalf("RecentBeacons(4) returned %d", len(recent))
	}
	for i, b := range recent {
		if want := uint64(100 - 4 + i); b.Seq != want {
			t.Errorf("recent[%d].Seq = %d, want %d (oldest first)", i, b.Seq, want)
		}
	}
	if got := m.RecentBeacons(1000); len(got) != beaconRingSize {
		t.Errorf("RecentBeacons beyond ring returned %d, want %d", len(got), beaconRingSize)
	}
}

func TestAuditCleanRun(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAudit(10_000)
	if _, err := m.Run([]workload.Stream{&endless{}}, 50_000); err != nil {
		t.Fatalf("clean run should pass its audits: %v", err)
	}
	if snap := m.Snapshot(); !strings.Contains(snap, "audit: clean") {
		t.Errorf("snapshot should carry the audit verdict: %q", snap)
	}
	if err := m.AuditNow(); err != nil {
		t.Errorf("post-run AuditNow on a healthy machine: %v", err)
	}
}

func TestAuditComponentsRegistered(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAudit(0)
	comps := m.auditor.Components()
	joined := strings.Join(comps, " ")
	for _, want := range []string{"machine", "itlb", "dtlb", "stlb", "l1i", "l1d", "l2c", "llc", "ptw"} {
		if !strings.Contains(joined, want) {
			t.Errorf("auditor missing component %q (have %v)", want, comps)
		}
	}
}

// TestAuditDetectsMSHRCorruption corrupts the STLB MSHR file mid-run and
// proves the periodic in-sim audit converts the corruption into a
// structured *audit.Error that ends the run.
func TestAuditDetectsMSHRCorruption(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAudit(1000)
	corrupt := func() {
		// Two live MSHRs walking the same page: a duplicate no legal
		// allocation path can produce.
		m.stlbMSHRs[0] = stlbMSHREntry{vpn: 0x1234, thread: 0, valid: true, readyAt: ^uint64(0) >> 1}
		m.stlbMSHRs[1] = stlbMSHREntry{vpn: 0x1234, thread: 0, valid: true, readyAt: ^uint64(0) >> 1}
	}
	s := &hookStream{s: &endless{}, at: 5_000, hook: corrupt}
	res, err := m.Run([]workload.Stream{s}, 1_000_000)
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("corrupted run should return *audit.Error, got: %v", err)
	}
	if len(ae.Violations) == 0 || ae.Violations[0].Component != "machine" || ae.Violations[0].Rule != "mshr-leak" {
		t.Errorf("unexpected violations: %v", ae.Violations)
	}
	if errors.Is(err, ErrInterrupted) {
		t.Error("audit failure should surface as the structured verdict, not ErrInterrupted")
	}
	if got := res.Stats.TotalInstructions(); got == 0 || got >= 1_000_000 {
		t.Errorf("audit should have ended the run early, retired %d", got)
	}
	if snap := m.Snapshot(); !strings.Contains(snap, "mshr-leak") {
		t.Errorf("snapshot should carry the failing verdict: %q", snap)
	}
}

// TestAuditDetectsPageTableIncoherence damages a cached TLB translation
// post-run and proves the coherence audit catches the disagreement with
// the page table.
func TestAuditDetectsPageTableIncoherence(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{&endless{}}, 20_000); err != nil {
		t.Fatal(err)
	}
	poisoned := false
	m.cores[0].itlb.VisitEntries(func(e *tlb.Entry) {
		if !poisoned {
			e.PPN ^= 0x5555
			poisoned = true
		}
	})
	if !poisoned {
		t.Fatal("run left no ITLB entries to poison")
	}
	err = m.AuditNow()
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("poisoned translation should fail the audit, got: %v", err)
	}
	found := false
	for _, v := range ae.Violations {
		if v.Rule == "pagetable-coherence" {
			found = true
		}
	}
	if !found {
		t.Errorf("want a pagetable-coherence violation, got: %v", ae.Violations)
	}
}

// TestAuditDetectsStackCorruption breaks a TLB set's recency stack and
// proves the component-level structural audit reports it.
func TestAuditDetectsStackCorruption(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{&endless{}}, 20_000); err != nil {
		t.Fatal(err)
	}
	poisoned := false
	m.cores[0].dtlb.VisitEntries(func(e *tlb.Entry) {
		if !poisoned {
			e.Stack = 200 // far outside any associativity
			poisoned = true
		}
	})
	if !poisoned {
		t.Fatal("run left no DTLB entries to poison")
	}
	err = m.AuditNow()
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("broken stack should fail the audit, got: %v", err)
	}
	found := false
	for _, v := range ae.Violations {
		if v.Component == "dtlb" && v.Rule == "stack-permutation" {
			found = true
		}
	}
	if !found {
		t.Errorf("want dtlb/stack-permutation, got: %v", ae.Violations)
	}
}
