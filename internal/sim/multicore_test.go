package sim

import (
	"reflect"
	"strings"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// mcStreams builds one stream per core, cycling the catalogue's server
// set so every core gets a tenant.
func mcStreams(t *testing.T, cores int) []workload.Stream {
	t.Helper()
	cat := workload.NewCatalog(8, 2)
	names := cat.ServerNames()
	streams := make([]workload.Stream, cores)
	for i := range streams {
		spec, err := cat.Get(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = spec.NewStream()
	}
	return streams
}

// runMC runs one warmup+measure simulation and returns its statistics.
func runMC(t *testing.T, cfg config.SystemConfig, streams []workload.Stream, warmup, measure uint64) *stats.Sim {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.RunWarmup(streams, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	return res.Stats
}

// TestMultiCoreDeterminism: the CMP machine is as bit-deterministic as
// the single-core one — two 4-core runs from the same seeds must walk
// through identical hierarchy states at every beacon boundary.
func TestMultiCoreDeterminism(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	a := collectBeacons(t, cfg, mcStreams(t, 4), 1000, 5_000, 20_000)
	b := collectBeacons(t, cfg, mcStreams(t, 4), 1000, 5_000, 20_000)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("beacon counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("4-core runs diverged at beacon %d:\n  run A: %s\n  run B: %s", i, a[i], b[i])
		}
	}
}

// TestOneCoreMatchesDefault: Cores=1 is the same machine as the classic
// Cores=0 default — same beacon chain, same statistics, golden runs
// unchanged.
func TestOneCoreMatchesDefault(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	legacy := testConfig()
	explicit := testConfig()
	explicit.Cores = 1

	a := collectBeacons(t, legacy, []workload.Stream{spec.NewStream()}, 1000, 5_000, 20_000)
	b := collectBeacons(t, explicit, []workload.Stream{spec.NewStream()}, 1000, 5_000, 20_000)
	if len(a) == 0 || !reflect.DeepEqual(a, b) {
		t.Fatalf("Cores=1 beacon stream differs from the Cores=0 default (%d vs %d beacons)", len(a), len(b))
	}

	sa := runMC(t, legacy, []workload.Stream{spec.NewStream()}, 5_000, 20_000)
	sb := runMC(t, explicit, []workload.Stream{spec.NewStream()}, 5_000, 20_000)
	if !reflect.DeepEqual(sa, sb) {
		t.Errorf("Cores=1 stats differ from the Cores=0 default:\n%v\nvs\n%v", sa, sb)
	}
}

// TestMultiCoreContention: shared-hierarchy interference is real. Every
// tenant of a 4-core run must retire strictly slower than it does solo
// on an otherwise-idle machine, while the machine's combined throughput
// exceeds any single tenant's co-located rate.
func TestMultiCoreContention(t *testing.T) {
	const cores = 4
	cat := workload.NewCatalog(8, 2)
	names := cat.ServerNames()[:cores]

	cfg := testConfig()
	cfg.Cores = cores
	streams := make([]workload.Stream, cores)
	for i, n := range names {
		spec, err := cat.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = spec.NewStream()
	}
	coloc := runMC(t, cfg, streams, 20_000, 100_000)

	var sumTenantIPC float64
	for i, n := range names {
		spec, err := cat.Get(n)
		if err != nil {
			t.Fatal(err)
		}
		solo := runMC(t, testConfig(), []workload.Stream{spec.NewStream()}, 20_000, 100_000)
		ten := &coloc.Cores[i]
		if ten.Instructions == 0 {
			t.Fatalf("tenant %d (%s) retired nothing in the measured phase", i, n)
		}
		if ten.IPC() >= solo.IPC() {
			t.Errorf("tenant %d (%s): co-located IPC %.4f not below solo %.4f — no interference?",
				i, n, ten.IPC(), solo.IPC())
		}
		sumTenantIPC += ten.IPC()
	}
	for i := range names {
		if agg := coloc.IPC(); agg <= coloc.Cores[i].IPC() {
			t.Errorf("aggregate IPC %.4f not above tenant %d's %.4f", agg, i, coloc.Cores[i].IPC())
		}
	}
	// The aggregate is total instructions over shared cycles, so it must
	// track the summed per-tenant rates (tenants retire over slightly
	// different cycle spans, hence the tolerance).
	if agg := coloc.IPC(); agg < 0.9*sumTenantIPC || agg > 1.1*sumTenantIPC {
		t.Errorf("aggregate IPC %.4f inconsistent with summed tenant IPCs %.4f", agg, sumTenantIPC)
	}
}

// TestMultiCorePerTenantAttribution: the per-tenant views must sum to
// the aggregates for the levels recorded per tenant, and every tenant
// must see its own translation traffic.
func TestMultiCorePerTenantAttribution(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	s := runMC(t, cfg, mcStreams(t, 4), 10_000, 50_000)

	var instr uint64
	for i := range s.Cores {
		instr += s.Cores[i].Instructions
	}
	if instr != s.TotalInstructions() {
		t.Errorf("per-tenant instructions sum %d != total %d", instr, s.TotalInstructions())
	}
	// The per-tenant sums are written out here rather than taken from
	// the stats package, so they check AggregateTenants independently.
	var sum [5]stats.Level
	var instrTrans, dataTrans arch.Cycle
	for i := range s.Cores {
		c := &s.Cores[i]
		if c.ITLB.TotalHits()+c.ITLB.TotalMisses() == 0 {
			t.Errorf("tenant %d recorded no ITLB traffic", i)
		}
		for j, l := range c.Levels() {
			for b := range l.Hits {
				sum[j].Hits[b] += l.Hits[b]
				sum[j].Misses[b] += l.Misses[b]
			}
			sum[j].MissLatSum += l.MissLatSum
			sum[j].MissLatCnt += l.MissLatCnt
		}
		instrTrans += c.InstrTransCycles
		dataTrans += c.DataTransCycles
	}
	for i, name := range []string{"ITLB", "DTLB", "STLB", "L1I", "L1D"} {
		want := *s.Levels()[i]
		want.Name = ""
		if sum[i] != want {
			t.Errorf("%s: per-tenant sum %+v != aggregate %+v", name, sum[i], want)
		}
	}
	if instrTrans != s.InstrTransCycles || dataTrans != s.DataTransCycles {
		t.Errorf("per-tenant translation cycles %d/%d != aggregate %d/%d",
			instrTrans, dataTrans, s.InstrTransCycles, s.DataTransCycles)
	}
}

// TestStreamCountValidation: the stream-count check reports the
// configured core count, not a hard-coded "1 or 2".
func TestStreamCountValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 4
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run(mcStreams(t, 2), 1000)
	if err == nil {
		t.Fatal("2 streams on a 4-core machine should fail")
	}
	if !strings.Contains(err.Error(), "4 cores") || !strings.Contains(err.Error(), "2 streams") {
		t.Errorf("error should report both configured cores and given streams: %v", err)
	}

	m1, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, err = m1.Run(mcStreams(t, 3), 1000)
	if err == nil {
		t.Fatal("3 streams on a 1-core machine should fail")
	}
	if !strings.Contains(err.Error(), "1 or 2 streams") {
		t.Errorf("single-core error should keep the 1-or-2 wording: %v", err)
	}
}

// TestSMTDrainRestoresFetchBandwidth is the regression test for the SMT
// drain bug: when one thread of an SMT pair exhausts its stream, the
// survivor must get the whole fetch bandwidth back (fetchStep 2 → 1)
// instead of fetching on alternate cycles against a dead peer for the
// rest of the run.
func TestSMTDrainRestoresFetchBandwidth(t *testing.T) {
	// Fetch-bound workloads (endless cache-resident loops), so the
	// survivor's throughput is limited by fetch bandwidth, not the memory
	// system — a memory-bound tenant would mask a fetch-rate bug entirely.
	// The warmup absorbs the cold-start transient; the peer then drains 5%
	// into the measured phase, leaving the survivor alone for the rest.
	const (
		warmup  = 20_000
		measure = 100_000
	)

	solo := runMC(t, testConfig(), []workload.Stream{&endless{}}, warmup, measure)

	pair := runMC(t, testConfig(), []workload.Stream{
		workload.Limit(&endless{}, warmup+measure/20),
		&endless{},
	}, warmup, measure)

	survivor := pair.Cores[1].IPC()
	if survivor == 0 {
		t.Fatal("survivor thread recorded no IPC")
	}
	// With fetchStep stuck at 2 the survivor's tail runs at half its solo
	// rate; with the bandwidth handed back it runs near-solo.
	if ratio := survivor / solo.IPC(); ratio < 0.8 {
		t.Errorf("survivor IPC %.4f is %.2fx solo %.4f; fetch bandwidth not restored after peer drain",
			survivor, ratio, solo.IPC())
	}
}
