package sim

import (
	"reflect"
	"strings"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/metrics"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// seriesOf collects every window w closes from now on, however many:
// the sampler itself keeps only the most recent ones.
func seriesOf(w *metrics.Windows) *[]metrics.WindowRecord {
	recs := new([]metrics.WindowRecord)
	w.SetSink(func(rec *metrics.WindowRecord) { *recs = append(*recs, *rec) })
	return recs
}

// twoPhaseStream builds a synthetic workload with a TLB-thrashing first
// phase (every load strides to a fresh 4KB page across a range far larger
// than the STLB reach) and a TLB-friendly second phase (all loads within
// one page), each of n instructions. The code footprint stays tiny so the
// STLB pressure is purely data-side.
func twoPhaseStream(n int) *workload.Replay {
	instrs := make([]workload.Instr, 0, 2*n)
	const codeBase = 0x400000
	const dataBase = 0x10000000
	page := uint64(0)
	for i := 0; i < n; i++ {
		in := workload.Instr{PC: arch.Addr(codeBase + uint64(i%64)*4)}
		if i%2 == 0 {
			// New 4KB page every load over a ~16GB span: guaranteed
			// STLB misses once warm.
			in.LoadAddr = arch.Addr(dataBase + page*arch.PageSize4K)
			page = (page + 1) % (1 << 22)
		}
		instrs = append(instrs, in)
	}
	for i := 0; i < n; i++ {
		in := workload.Instr{PC: arch.Addr(codeBase + uint64(i%64)*4)}
		if i%2 == 0 {
			in.LoadAddr = arch.Addr(dataBase + uint64(i%16)*64)
		}
		instrs = append(instrs, in)
	}
	return &workload.Replay{Instrs: instrs}
}

// TestPhaseAdaptiveMetricsCorrespondence drives the adaptive xPTP
// controller through a thrash->friendly phase change and checks that the
// exported window series is a cycle-exact mirror of the controller's own
// decisions: for every window, the recorded status bit equals the decision
// the controller made from that window's recorded miss count, and the
// series' enabled/disabled tallies equal the controller's.
func TestPhaseAdaptiveMetricsCorrespondence(t *testing.T) {
	const phase = 50_000
	cfg := config.Default()
	cfg.L2CPolicy = "xptp"
	cfg.XPTP.T1 = 8
	cfg.XPTP.WindowInstr = 1000

	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := seriesOf(m.InstrumentMetrics(cfg.XPTP.WindowInstr))
	if _, err := m.Run([]workload.Stream{twoPhaseStream(phase)}, 2*phase); err != nil {
		t.Fatal(err)
	}

	recs := *series
	if len(recs) != 2*phase/1000 {
		t.Fatalf("closed %d windows, want %d", len(recs), 2*phase/1000)
	}

	t1 := m.Controller().T1()
	var enabled, disabled, transitions uint64
	var sawEnabled, sawDisabled bool
	for i, rec := range recs {
		if rec.XPTPEnabled == nil {
			t.Fatalf("window %d: missing xPTP status bit", rec.Window)
		}
		if i > 0 && *rec.XPTPEnabled != *recs[i-1].XPTPEnabled {
			transitions++
		}
		misses := rec.Counters.STLBDemandMissInstr + rec.Counters.STLBDemandMissData
		want := misses > uint64(t1)
		if *rec.XPTPEnabled != want {
			t.Fatalf("window %d: recorded xptp=%v but window saw %d misses (T1=%d): series and controller disagree",
				rec.Window, *rec.XPTPEnabled, misses, t1)
		}
		if want {
			enabled++
			sawEnabled = true
		} else {
			disabled++
			sawDisabled = true
		}
	}
	// The phase change must actually exercise both sides of T1, otherwise
	// the correspondence check proved nothing.
	if !sawEnabled || !sawDisabled {
		t.Fatalf("series never crossed T1 (enabled=%d disabled=%d): workload phases too weak", enabled, disabled)
	}
	if got := m.Stats.XPTPEnabledWindows; got != enabled {
		t.Fatalf("controller counted %d enabled windows, series %d", got, enabled)
	}
	if got := m.Stats.XPTPDisabledWindows; got != disabled {
		t.Fatalf("controller counted %d disabled windows, series %d", got, disabled)
	}
	if transitions == 0 {
		t.Fatal("no enable/disable transitions recorded across a phase change")
	}
}

// TestMetricsWindowMisalignedSizes checks the series stays self-consistent
// when the sampling window differs from the controller window (the status
// bit then reflects the controller's latest decision, and deltas still
// chain).
func TestMetricsWindowMisalignedSizes(t *testing.T) {
	cfg := config.Default()
	cfg.L2CPolicy = "xptp"
	cfg.XPTP.T1 = 8
	cfg.XPTP.WindowInstr = 1000

	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := m.InstrumentMetrics(2500)
	if _, err := m.Run([]workload.Stream{twoPhaseStream(20_000)}, 40_000); err != nil {
		t.Fatal(err)
	}
	recs := w.Records()
	if len(recs) != 40_000/2500 {
		t.Fatalf("closed %d windows, want %d", len(recs), 40_000/2500)
	}
	var prev arch.Instr
	for _, rec := range recs {
		if rec.Retired != prev+2500 || rec.Instr != 2500 {
			t.Fatalf("window %d boundaries broken: %+v", rec.Window, rec)
		}
		prev = rec.Retired
		if rec.XPTPEnabled == nil {
			t.Fatalf("window %d: missing xPTP status bit", rec.Window)
		}
	}
}

// TestMachineCountersMirrorStats checks the windowed series counts every
// event exactly once: on a run with no warmup (nothing reset) and a
// measure that is a whole number of windows, each of the nine counters'
// deltas sum to the matching stats.Sim total — or, for the three events
// stats.Sim does not hold, to the component counter itself.
func TestMachineCountersMirrorStats(t *testing.T) {
	m, err := NewMachine(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	w := m.InstrumentMetrics(0)
	series := seriesOf(w)
	spec, err := workload.NewCatalog(4, 2).Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run([]workload.Stream{spec.NewStream()}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(*series) != 100 {
		t.Fatalf("collected %d windows, want 100", len(*series))
	}
	// Sum every field of the record by its JSON name, so a counter the
	// want table below misses fails the length check.
	sum := map[string]uint64{}
	for _, rec := range *series {
		v := reflect.ValueOf(rec.Counters)
		for i := 0; i < v.NumField(); i++ {
			sum[v.Type().Field(i).Tag.Get("json")] += v.Field(i).Uint()
		}
	}
	s := res.Stats
	want := map[string]uint64{
		"stlb.demand_miss.instr": s.STLB.Misses[stats.BInstr],
		"stlb.demand_miss.data":  s.STLB.Misses[stats.BData],
		"l1i.demand_miss":        s.L1I.TotalMisses(),
		"l2c.demand_miss":        s.L2C.TotalMisses(),
		"ptw.walk.instr":         s.PageWalks[arch.InstrClass],
		"ptw.walk.data":          s.PageWalks[arch.DataClass],
		"l2c.evict.pte":          m.l2c.EvictPTE,
		"l2c.evict.data_pte":     m.l2c.EvictDataPTE,
		"branch.mispredict":      m.branchMispredicts,
	}
	if len(sum) != len(want) {
		t.Fatalf("series tracks %d counters, want %d: %v", len(sum), len(want), sum)
	}
	for name, v := range want {
		if v == 0 {
			t.Errorf("%s: total is 0, the run does not exercise it", name)
		}
		if sum[name] != v {
			t.Errorf("%s: window deltas sum to %d, total is %d", name, sum[name], v)
		}
	}
	if m.Metrics() != w {
		t.Fatal("Metrics() accessor lost the sampler")
	}
}

// TestSnapshotIncludesWindowHistory checks the watchdog-facing diagnostic
// snapshot carries the recent window series once metrics are attached.
func TestSnapshotIncludesWindowHistory(t *testing.T) {
	cfg := config.Default()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.InstrumentMetrics(1000)
	spec, err := workload.NewCatalog(4, 2).Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{spec.NewStream()}, 10_000); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if want := "recent-windows:"; !strings.Contains(snap, want) {
		t.Fatalf("Snapshot missing %q:\n%s", want, snap)
	}
	if !strings.Contains(snap, "ipc=") {
		t.Fatalf("Snapshot window history empty:\n%s", snap)
	}
}
