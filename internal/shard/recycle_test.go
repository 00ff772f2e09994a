package shard

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/workload"
)

// segmentRun is what one segment job reports: the measured statistics as
// JSON, the final beacon stamp, and the run's error (an audit violation
// ends the run with one).
type segmentRun struct {
	stats   string
	chain   uint64
	count   uint64
	verdict string
}

// runOneSegment runs seg as a single supervised segment job with beacons
// and audits on.
func runOneSegment(t *testing.T, cfg Config, seg Segment, key string, src Source, ix *Index) segmentRun {
	t.Helper()
	jobs, err := SegmentJobs(cfg, []Segment{seg}, key, src, ix)
	if err != nil {
		t.Fatal(err)
	}
	outs, _ := harness.RunAll(harness.Options{Parallelism: 1}, jobs)
	o := outs[0]
	r := segmentRun{verdict: fmt.Sprint(o.Err)}
	if o.Result != nil {
		b, err := json.Marshal(o.Result.Stats)
		if err != nil {
			t.Fatal(err)
		}
		r.stats = string(b)
	}
	if o.Beacon != nil {
		r.chain, r.count = o.Beacon.Chain, o.Beacon.Count
	}
	return r
}

// TestRecycledStorageIsInvisible: segment B run on a machine whose
// storage comes from a released machine that ran segment A under other
// policies matches B run on new storage: statistics JSON, beacon chain
// and count, and audit verdict, in every fig8a quadrant and on a split
// STLB. A's SHiP L2C and Mockingjay LLC leave Sig, RRPV and Reused in
// the cache lines (Mockingjay's ETAs live in the policy, which no machine
// shares), its CHiRP STLB leaves Sig and Reused in the TLB entries, its
// 2 MB pages leave 2 MB frames in the page table's frame classes, and its
// thread leaves retire and dispatch times in the ROB and FTQ rings; on
// the split STLB, split halves reuse split halves. The pools are
// emptied before the reference run and again before A, so the
// reference machine's storage and A's are new; with collection off and
// one processor, B takes A's released storage. (Were A to take the
// reference's frame classes, stale frames would hand B the reference's own
// translations back.) The cache, tlb, vm and sim tests of recycled
// storage show that constructors, page tables and threads do take
// released storage.
func TestRecycledStorageIsInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a few hundred thousand instructions per configuration")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	src := testSource(t, workload.NewCatalog(120, 20).ServerNames()[1])
	ix := NewIndex()
	segA := Segment{Index: 0, Offset: 0, Warmup: 30_000, Measure: 70_000}
	// Past two audit passes (every 64K retired), with functional warmup
	// so WarmFunctional's pooled buffer is in play too.
	segB := Segment{Index: 1, Offset: 100_000, FuncWarmup: 50_000, Warmup: 30_000, Measure: 100_000}
	type system struct {
		name string
		cfg  config.SystemConfig
	}
	var systems []system
	for _, q := range quadrants {
		systems = append(systems, system{q.name, quadrantConfig(q)})
	}
	split := quadrantConfig(quadrants[len(quadrants)-1])
	split.SplitSTLB = true
	systems = append(systems, system{"split-itp-xptp", split})
	for _, sys := range systems {
		name := sys.name
		t.Run(name, func(t *testing.T) {
			cfg := Config{System: sys.cfg, BeaconInterval: 20_000, Audit: true}
			other := cfg
			other.System.L2CPolicy, other.System.LLCPolicy = "ship", "mockingjay"
			other.System.STLBPolicy, other.System.HugePageFraction = "chirp", 0.5

			runtime.GC()
			runtime.GC() // a sync.Pool is empty after two collections
			want := runOneSegment(t, cfg, segB, "recycle|fresh|"+name, src, ix)
			runtime.GC()
			runtime.GC()
			runOneSegment(t, other, segA, "recycle|other|"+name, src, ix)
			got := runOneSegment(t, cfg, segB, "recycle|reused|"+name, src, ix)

			if want.verdict != "<nil>" || want.count == 0 {
				t.Fatalf("reference run: error %s, %d beacons", want.verdict, want.count)
			}
			if got.verdict != want.verdict {
				t.Errorf("verdict on recycled storage %q, on new storage %q", got.verdict, want.verdict)
			}
			if got.chain != want.chain || got.count != want.count {
				t.Errorf("beacon chain on recycled storage %#x/%d, on new storage %#x/%d",
					got.chain, got.count, want.chain, want.count)
			}
			if got.stats != want.stats {
				t.Error("stats on recycled storage differ from stats on new storage")
			}
		})
	}
}
