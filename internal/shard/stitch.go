package shard

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/stats"
)

// SegmentResult is one segment's contribution to a stitched run, with
// its supervision metadata.
type SegmentResult struct {
	Segment Segment
	// Weight is how many times the segment's counters count in the
	// stitched totals: 1 for a shard, the phase occupancy for a sampled
	// representative.
	Weight   uint64
	Stats    *stats.Sim
	Beacon   *harness.BeaconStamp
	Attempts int
	Cached   bool
}

// Result is a stitched split run.
type Result struct {
	// Stats is the weighted field-wise sum of the per-segment measured
	// statistics; ratio metrics (IPC, MPKI, hit rates) recompute correctly
	// from the summed events because they are pure quotients of summed
	// counters.
	Stats *stats.Sim
	// IPC is recomputed from the stitched totals.
	IPC float64
	// Windows is the stitched window series in serial coordinates:
	// gap-free, duplicate-free, strictly monotonic in Retired, renumbered
	// from zero. Empty when the run sampled no windows.
	Windows []metrics.WindowRecord
	// Segments holds the per-segment results in segment order.
	Segments []SegmentResult
}

// Beacon returns the run's deterministic-state fingerprint when the split
// makes one meaningful. Only a single segment of weight 1 with fully
// detailed warmup simulates the exact serial machine state (the 1-shard
// or 1-phase plan), so only it has a serial-comparable chain; functional
// warmup approximates the warmup timing, diverging the chain even for one
// segment.
func (r *Result) Beacon() *harness.BeaconStamp {
	if len(r.Segments) == 1 && r.Segments[0].Weight == 1 && r.Segments[0].Segment.FuncWarmup == 0 {
		return r.Segments[0].Beacon
	}
	return nil
}

// Stitch combines per-segment outcomes (as returned by harness.RunAll
// over SegmentJobs(segs) — an indexed slice in segment order, never map
// or channel-arrival order) into one Result: segment i's counters count
// weights[i] times, and its window series is rebased into serial
// coordinates. It re-verifies each payload's segment against segs, so
// stale checkpoint payloads from a different split are rejected rather
// than summed.
func Stitch(segs []Segment, weights []uint64, outs []harness.Outcome[*Payload]) (*Result, error) {
	if len(outs) != len(segs) || len(weights) != len(segs) {
		return nil, fmt.Errorf("shard: %d outcomes and %d weights for %d segments", len(outs), len(weights), len(segs))
	}
	res := &Result{Stats: stats.NewSim(), Segments: make([]SegmentResult, len(segs))}
	for i, out := range outs {
		if out.Err != nil {
			return nil, fmt.Errorf("shard: segment %d (%s): %w", i, out.Key, out.Err)
		}
		p := out.Result
		if p == nil || p.Stats == nil {
			return nil, fmt.Errorf("shard: segment %d (%s): empty payload", i, out.Key)
		}
		if p.Segment != segs[i] {
			return nil, fmt.Errorf("shard: segment %d: payload segment %+v does not match planned segment %+v (stale checkpoint?)", i, p.Segment, segs[i])
		}
		res.Stats.AddScaled(p.Stats, weights[i])
		if err := appendWindows(res, segs[i], p.Windows); err != nil {
			return nil, err
		}
		res.Segments[i] = SegmentResult{
			Segment:  p.Segment,
			Weight:   weights[i],
			Stats:    p.Stats,
			Beacon:   out.Beacon,
			Attempts: out.Attempts,
			Cached:   out.Cached,
		}
	}
	res.IPC = res.Stats.IPC()
	return res, nil
}

// appendWindows rebases one segment's window series into serial
// coordinates and appends it to the stitched series. Per-segment records
// are cumulative from the segment's own stream start, so warmup windows
// (Retired within the functional+detailed warmup prefix) are dropped
// and measured windows shift by the segment's stream offset; the result
// is renumbered sequentially and checked strictly monotonic at the seam.
func appendWindows(res *Result, seg Segment, recs []metrics.WindowRecord) error {
	for _, rec := range recs {
		if rec.Retired <= arch.Instr(seg.warmupTotal()) {
			continue
		}
		rec.Retired += arch.Instr(seg.Offset)
		rec.Window = uint64(len(res.Windows))
		if n := len(res.Windows); n > 0 && rec.Retired <= res.Windows[n-1].Retired {
			return fmt.Errorf("shard: segment %d: stitched window series not monotonic (%d after %d)", seg.Index, rec.Retired, res.Windows[n-1].Retired)
		}
		res.Windows = append(res.Windows, rec)
	}
	return nil
}
