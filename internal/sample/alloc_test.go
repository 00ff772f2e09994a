package sample

import (
	"runtime"
	"runtime/debug"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/shard"
	"itpsim/internal/workload"
)

// splitRunAllocBudget is the most heap TestSplitRunAllocation accepts
// for one sampled run, in bytes: about 1.5× the measured total of
// 6.97–7.01 MB (2-vCPU host). Built without releasing machine storage,
// the same run allocates 21.6 MB.
const splitRunAllocBudget = 10_500_000

// TestSplitRunAllocation is the allocation gate for split runs. A K=8
// sampled run with beacons and audits on two workers builds nine
// machines: the profiling pass and eight representatives. Each machine
// releases its cache arrays, decode batches go back to the shared batch
// pool and functional warmup borrows its buffer, so the run allocates
// little beyond the machines that are live at once. The pools are
// emptied first, so the run starts cold; collection stays off while it
// is measured, so nothing it released is lost to a collection. Two
// processors, as on the host the budget was measured on: a pool serves
// each processor from its own slot first.
func TestSplitRunAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates about a million instructions")
	}
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	cat := workload.NewCatalog(120, 20)
	spec, err := cat.Get(cat.ServerNames()[0])
	if err != nil {
		t.Fatal(err)
	}
	src := shard.Source{Name: "alloc", New: spec.NewStream}
	cfg := Config{
		System: config.Default(), Phases: 8,
		Window: 10_000, Warmup: 40_000, DetailWarmup: 10_000, Measure: 400_000,
		BeaconInterval: 10_000, Audit: true,
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	runtime.GC()
	runtime.GC() // a sync.Pool is empty after two collections
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, "alloc", src, nil, nil, harness.Options{Parallelism: 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Reps); n != cfg.Phases {
		t.Fatalf("%d representatives, want %d", n, cfg.Phases)
	}
	n := after.TotalAlloc - before.TotalAlloc
	t.Logf("sampled run allocated %.2f MB", float64(n)/1e6)
	if n > splitRunAllocBudget {
		t.Errorf("sampled run allocated %d bytes, budget %d", n, splitRunAllocBudget)
	}
}
