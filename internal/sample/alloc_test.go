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
// for one sampled run, in bytes: about 1.25× the 2.86 MB it takes (Go
// 1.24; 2.90–2.93 MB while functional warmup copied out of the ring and
// TLB entries were 32 bytes). It sits below the 3.17 MB the run takes
// when a closed ring leaves the batch its decoder holds to the
// collector, functional warmup keeps buffers of its own and TLB entries
// are 40 bytes, the 3.87–3.91 MB it took with 64-bit frame numbers and
// tags, and far below the 6.7–7.1 MB it takes when machines recycle
// only their cache arrays.
// Without Machine.Release the run allocates 18.6 MB.
const splitRunAllocBudget = 3_600_000

// TestSplitRunAllocation is the allocation gate for split runs. A K=8
// sampled run with beacons and audits on two workers builds nine
// machines: the profiling pass and eight representatives. Each machine
// releases its cache arrays, TLB entries, stride table and page-table
// frame classes, and each run its lookahead, ROB and FTQ rings; each
// decode-ahead ring returns every batch it took to the shared batch pool
// when it closes, and functional warmup steps the ring's own batches,
// so the run allocates little beyond the machines that are live at
// once. The pools are emptied first, so the run starts cold; collection
// stays off while it is measured, so nothing it released is lost to a
// collection. One processor, so every released item is in reach: a
// sync.Pool serves each processor from a slot of its own first, and with
// two, a machine now and then missed the storage in the other
// processor's slot and allocated up to 1.8 MB more.
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
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
