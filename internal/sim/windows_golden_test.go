package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/metrics"
	"itpsim/internal/workload"
)

const goldenWindowsPath = "testdata/windows_golden.json"

// windowSeriesCases are the runs whose windowed series the golden pins:
// a single-core iTP+xPTP run whose warmup ends mid-window (so one window
// spans the warmup→measure statistics reset), a 2-core CMP run (per-core
// private structures summed into one series), and a functionally warmed
// run (window baselines resynchronised after the skip).
var windowSeriesCases = []struct {
	name                      string
	cores                     int
	funcWarm, warmup, measure uint64
}{
	{"itp-xptp-1core", 1, 0, 2_500, 20_000},
	{"itp-xptp-2core", 2, 0, 1_500, 10_000},
	{"itp-xptp-funcwarm", 1, 3_000, 1_500, 8_000},
}

func runWindowSeries(t *testing.T, cores int, funcWarm, warmup, measure uint64) []metrics.WindowRecord {
	t.Helper()
	cfg := config.Default()
	cfg.Cores = cores
	cfg.STLBPolicy = "itp"
	cfg.L2CPolicy = "xptp"
	cfg.XPTP.WindowInstr = 1000
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	series := seriesOf(m.InstrumentMetrics(1000))
	cat := workload.NewCatalog(4, 2)
	names := cat.ServerNames()
	streams := make([]workload.Stream, cores)
	for i := range streams {
		spec, err := cat.Get(names[i%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = spec.NewStream()
	}
	if funcWarm > 0 {
		if err := m.WarmFunctional(streams[0], funcWarm); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.RunWarmup(streams, warmup, measure); err != nil {
		t.Fatal(err)
	}
	return *series
}

// TestWindowSeriesGolden pins the exported window series — every
// record's coordinates, IPC, counter deltas, derived MPKIs, and xPTP
// status bit — byte for byte to testdata/windows_golden.json. Rerun with
// -update only for a deliberate change to what the series reports.
func TestWindowSeriesGolden(t *testing.T) {
	got := make(map[string][]metrics.WindowRecord, len(windowSeriesCases))
	for _, tc := range windowSeriesCases {
		got[tc.name] = runWindowSeries(t, tc.cores, tc.funcWarm, tc.warmup, tc.measure)
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateGolden {
		if err := os.WriteFile(goldenWindowsPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenWindowsPath)
		return
	}
	want, err := os.ReadFile(goldenWindowsPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sim -run TestWindowSeriesGolden -update` to create it)", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("window series differs from %s (rerun with -update if deliberate)", goldenWindowsPath)
	}
}
