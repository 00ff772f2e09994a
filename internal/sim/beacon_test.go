package sim

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
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

// beaconShapeCases pin the chains of state shapes the four golden
// quadrants never reach: multi-byte Mockingjay ETAs, Mockingjay's victim
// search on full L2C sets, SHiP and Hawkeye signatures, perceptron
// weights, the split STLB under LRU and iTP, the STLB under CHiRP
// (low-confidence insertion included) and ProbLRU, 2MB pages, a 2-core
// CMP and an SMT pair. They run shorter than the quadrants and keep a
// table of their own because golden_mc_test.go shares goldenCases.
var beaconShapeCases = []struct {
	name    string
	tenants int // streams srv_000, srv_001, ... (one per core, or an SMT pair)
	config  func(*config.SystemConfig)
}{
	{"llc-mockingjay", 1, func(c *config.SystemConfig) { c.LLCPolicy = "mockingjay" }},
	{"l2c-mockingjay", 1, func(c *config.SystemConfig) { c.L2CPolicy = "mockingjay" }},
	{"l2c-ship", 1, func(c *config.SystemConfig) { c.L2CPolicy = "ship" }},
	{"llc-hawkeye", 1, func(c *config.SystemConfig) { c.LLCPolicy = "hawkeye" }},
	{"perceptron", 1, func(c *config.SystemConfig) { c.BranchPredictor = "perceptron" }},
	{"split-stlb", 1, func(c *config.SystemConfig) { c.SplitSTLB = true }},
	{"split-itp", 1, func(c *config.SystemConfig) {
		c.SplitSTLB = true
		c.STLBPolicy = "itp"
	}},
	{"stlb-chirp", 1, func(c *config.SystemConfig) {
		c.STLBPolicy = "chirp"
		c.STLB.Sets = 16 // 192 entries: dead evictions train signatures below the threshold
	}},
	{"stlb-problru", 1, func(c *config.SystemConfig) { c.STLBPolicy = "problru" }},
	{"huge-pages", 1, func(c *config.SystemConfig) { c.HugePageFraction = 0.5 }},
	{"cmp2-itp-xptp", 2, func(c *config.SystemConfig) {
		c.Cores = 2
		c.STLBPolicy = "itp"
		c.L2CPolicy = "xptp"
	}},
	{"smt-pair", 2, func(c *config.SystemConfig) { c.SMT = true }},
}

// goldenChain runs tenants catalogue servers on a machine built from cfg
// with beacons at the default interval and returns its final chain.
func goldenChain(t *testing.T, cfg config.SystemConfig, tenants int, warmup, measure uint64) goldenBeacon {
	t.Helper()
	cat := workload.NewCatalog(4, 2)
	names := cat.ServerNames()
	streams := make([]workload.Stream, tenants)
	for i := range streams {
		spec, err := cat.Get(names[i])
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = spec.NewStream()
	}
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.EnableBeacons(0)
	if _, err := m.RunWarmup(streams, warmup, measure); err != nil {
		t.Fatal(err)
	}
	chain, count := m.BeaconChain()
	return goldenBeacon{Chain: hex16(chain), Count: count}
}

// TestGoldenBeacons locks the beacon chains of the four policy quadrants
// and of beaconShapeCases to a golden file. Because this test runs both
// with and without -race in CI (make race vs cover-check), a fixed golden
// chain is also the race-vs-norace equivalence proof: both build modes
// must drive the machine through identical states at every boundary.
func TestGoldenBeacons(t *testing.T) {
	got := make(map[string]goldenBeacon, len(goldenCases)+len(beaconShapeCases))
	for _, tc := range goldenCases {
		cfg := config.Default()
		cfg.STLBPolicy = tc.stlb
		cfg.L2CPolicy = tc.l2c
		got[tc.name] = goldenChain(t, cfg, 1, 50_000, 100_000)
	}
	for _, tc := range beaconShapeCases {
		cfg := config.Default()
		tc.config(&cfg)
		got[tc.name] = goldenChain(t, cfg, tc.tenants, 20_000, 40_000)
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
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: missing from golden beacon file (rerun with -update)", name)
			continue
		}
		if g != w {
			t.Errorf("%s: beacon chain %+v, golden %+v — the simulator's state evolution changed (rerun with -update if deliberate)",
				name, g, w)
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

// auditLog is an audit component that records the retired count at
// every pass it takes part in.
type auditLog struct {
	m       *Machine
	retired []uint64
}

// AuditState implements audit.Checkable.
func (l *auditLog) AuditState(*audit.Report) { l.retired = append(l.retired, l.m.retiredLocal) }

// TestPeriodicAuditSchedule: a detailed run with EnableAudit(n) audits
// exactly at retired counts n, 2n, …. The schedule counts retired
// instructions, not cycles; on a server workload the two clocks part
// within the first interval, so a schedule kept in cycles fails here.
func TestPeriodicAuditSchedule(t *testing.T) {
	const every, total = 2_000, 20_000
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get(cat.ServerNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.EnableAudit(every)
	log := &auditLog{m: m}
	m.auditor.Register("schedule", log)
	if _, err := m.Run([]workload.Stream{spec.NewStream()}, total); err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for r := uint64(every); r <= total; r += every {
		want = append(want, r)
	}
	if !slices.Equal(log.retired, want) {
		t.Fatalf("audits ran at retired counts %v, want %v", log.retired, want)
	}
	if cycles := uint64(m.maxRetireCycle); cycles < total+every {
		t.Fatalf("the run took %d cycles for %d instructions: too close for the clocks to part", cycles, total)
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

// lastFillLRU is TLB LRU that keeps the view of the set it last filled.
// A TLB builds its set views once, so the kept view is still that set's
// own after the call.
type lastFillLRU struct {
	tlb.LRU
	last *tlb.Set
}

func (p *lastFillLRU) OnFill(si int, set *tlb.Set, way int, req *tlb.Request) {
	p.LRU.OnFill(si, set, way, req)
	p.last = set
}

// TestAuditDetectsStackCorruption breaks a TLB set's recency stack and
// proves the component-level structural audit reports it.
func TestAuditDetectsStackCorruption(t *testing.T) {
	cfg := testConfig()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pol := &lastFillLRU{}
	m.cores[0].dtlb.Release()
	m.cores[0].dtlb = tlb.New("DTLB", cfg.DTLB.Sets, cfg.DTLB.Ways, pol)
	if _, err := m.Run([]workload.Stream{&endless{}}, 20_000); err != nil {
		t.Fatal(err)
	}
	if pol.last == nil {
		t.Fatal("run filled no DTLB set to poison")
	}
	pol.last.Stack[0] = 200 // far outside any associativity
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
