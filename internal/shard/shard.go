// Package shard runs one logical simulation as K overlapping
// warmup+measure segments, each on its own sim.Machine, and stitches the
// per-segment statistics and window series back into a single run result.
//
// The paper's methodology simulates each (workload × policy) cell for
// 50M+100M instructions on a cluster; serially that costs minutes per
// cell at this simulator's throughput. Sharding splits the measured
// region [W, W+N) of the deterministic instruction stream into K
// contiguous segments: shard i starts consuming the stream at offset
// i·N/K, warms the microarchitectural state for W instructions of true
// stream prefix, then measures its segment. The union of the measured
// segments tiles [W, W+N) exactly — gap-free and duplicate-free — so
// event counts stitch by summation and only the warmup approximation
// (shard i's caches having seen W instructions of history instead of
// W + i·N/K) separates a stitched run from the serial reference. The
// degenerate 1-shard plan is literally the serial run, beacon chain
// included; internal/shard's differential test battery bounds the K>1
// warmup error per policy quadrant.
//
// Positioning K streams would cost O(K·N) generator work done naively;
// the split Index snapshots the generator state at every shard offset in
// one forward pass (workload.Cloner) and re-clones the snapshots for
// every run that shares the workload, so a policy sweep pays the
// positioning pass once per workload, not once per cell.
//
// The package is the one executor of split runs. A split run is a list
// of Segments with one weight each: a Plan's tiling weighs every shard 1,
// and internal/sample's representatives weigh their phase occupancy.
// SegmentJobs runs each segment as one job under the internal/harness
// supervisor: per-segment retries, forward-progress watchdog, and
// checkpoint/resume of completed segments through the v2 journal (keyed
// baseKey|shard i/K, with the segment's beacon stamp journaled alongside
// its payload). Stitch sums the weighted outcomes back into one Result.
package shard

import "fmt"

// Plan describes how one logical run splits into shards.
type Plan struct {
	// Shards is the segment count K (1 = the serial plan).
	Shards int
	// Warmup is the per-shard warmup in instructions: every shard,
	// including shard 0, warms on the W instructions of stream prefix
	// immediately preceding its measured segment.
	Warmup uint64
	// Measure is the total measured instructions across all shards.
	Measure uint64
	// FuncWarmup replays the first FuncWarmup instructions of each
	// shard's warmup prefix functionally — the hierarchy (TLBs, caches,
	// page walker, branch predictor) sees every access at generator
	// speed, but no OoO pipeline timing is simulated — leaving only the
	// remaining Warmup−FuncWarmup instructions as detailed warmup. Must
	// be < Warmup when non-zero (the detailed suffix settles timing
	// state and hosts the warmup→measure reset). 0 = fully detailed
	// warmup, the exact pre-existing behavior.
	FuncWarmup uint64
}

// Validate rejects nonsensical plans.
func (p Plan) Validate() error {
	if p.Shards < 1 {
		return fmt.Errorf("shard: plan needs at least 1 shard, got %d", p.Shards)
	}
	if p.Measure < uint64(p.Shards) {
		return fmt.Errorf("shard: measure %d < shards %d leaves empty segments", p.Measure, p.Shards)
	}
	if p.FuncWarmup > 0 && p.FuncWarmup >= p.Warmup {
		return fmt.Errorf("shard: functional warmup %d must leave a detailed warmup suffix (total warmup %d)", p.FuncWarmup, p.Warmup)
	}
	return nil
}

// Segment is one shard's slice of the stream. The shard consumes stream
// positions [Offset, Offset+FuncWarmup+Warmup+Measure): FuncWarmup
// instructions replayed functionally, Warmup instructions of detailed
// warmup, then the measured region, which in serial coordinates is
// [Offset+FuncWarmup+Warmup, Offset+FuncWarmup+Warmup+Measure).
type Segment struct {
	Index      int    `json:"index"`
	Offset     uint64 `json:"offset"`
	FuncWarmup uint64 `json:"func_warmup,omitempty"`
	Warmup     uint64 `json:"warmup"`
	Measure    uint64 `json:"measure"`
}

// warmupTotal is the stream prefix preceding the measured region.
func (s Segment) warmupTotal() uint64 { return s.FuncWarmup + s.Warmup }

// Segments lays the plan out. Boundaries are cumulative floors
// (start_i = i·Measure/Shards), so the measured segments tile
// [Warmup, Warmup+Measure) in serial coordinates with no gaps or
// overlaps by construction, and the 1-shard plan with FuncWarmup 0
// degenerates to {Offset: 0, Warmup, Measure} — exactly the serial run.
// Plan.Warmup is the total prefix; each segment's FuncWarmup slice of it
// runs functionally and the rest in detail.
func (p Plan) Segments() []Segment {
	segs := make([]Segment, p.Shards)
	k := uint64(p.Shards)
	for i := range segs {
		start := uint64(i) * p.Measure / k
		end := uint64(i+1) * p.Measure / k
		segs[i] = Segment{
			Index:      i,
			Offset:     start,
			FuncWarmup: p.FuncWarmup,
			Warmup:     p.Warmup - p.FuncWarmup,
			Measure:    end - start,
		}
	}
	return segs
}

// Weights are the plan's stitch weights, indexed like Segments: a tiling
// counts every shard once.
func (p Plan) Weights() []uint64 {
	w := make([]uint64, p.Shards)
	for i := range w {
		w[i] = 1
	}
	return w
}
