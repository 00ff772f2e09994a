package shard

import (
	"fmt"

	"itpsim/internal/config"
	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/workload"
)

// Config describes the machine every segment of a split run simulates.
type Config struct {
	// System is the machine configuration every segment runs.
	System config.SystemConfig
	// BeaconInterval arms per-segment deterministic state beacons every N
	// retired instructions (0 = off). Each segment's final chain is
	// sampled by the harness and journaled with its checkpoint record;
	// Result.Beacon says when a chain is comparable with the serial run's.
	BeaconInterval uint64
	// Audit arms the periodic structural invariant auditor on every
	// segment machine (at its default interval).
	Audit bool
	// MetricsWindow sizes the per-segment window series in retired
	// instructions (0 = no window series). When set, every segment's
	// warmup and measured length must be window multiples so the stitched
	// series stays gap-free across segment boundaries; SegmentJobs
	// rejects misaligned segments.
	MetricsWindow uint64
}

// Payload is the journaled result of one segment job: the segment it
// simulated (stitching re-verifies it against the split, so a checkpoint
// from a different split cannot be stitched silently), the measured
// statistics, and the window series when sampling was armed.
type Payload struct {
	Segment Segment                `json:"segment"`
	Stats   *stats.Sim             `json:"stats"`
	Windows []metrics.WindowRecord `json:"windows,omitempty"`
}

// SegmentJobs builds one supervised harness job per segment, in segment
// order: the job engine behind every split run, whether the segments
// tile a Plan or are internal/sample's representative intervals.
// Segments must be offset-ascending; each is checked for window
// alignment and functional-warmup shape. Job keys are
// baseKey|shard i/K|o…|w…|m…, plus |f<n> for segments with functional
// warmup, stable across processes for checkpoint resume. Positioning
// happens eagerly here, in one serial pass through ix (a throwaway index
// when nil, else shared so repeated runs reuse snapshots); each job
// re-clones its pristine stream per attempt, so retries replay the
// identical segment.
func SegmentJobs(cfg Config, segs []Segment, baseKey string, src Source, ix *Index) ([]harness.Job[*Payload], error) {
	if cfg.System.Cores > 1 {
		// A split run divides ONE stream; a CMP run interleaves N streams
		// whose interference must be simulated whole.
		return nil, fmt.Errorf("shard: multi-core runs (Cores=%d) must run whole; segment jobs split a single stream", cfg.System.Cores)
	}
	offsets := make([]uint64, len(segs))
	for i, seg := range segs {
		if seg.Measure == 0 {
			return nil, fmt.Errorf("shard: segment %d measures nothing", seg.Index)
		}
		if seg.FuncWarmup > 0 && seg.Warmup == 0 {
			return nil, fmt.Errorf("shard: segment %d has functional warmup %d but no detailed warmup suffix", seg.Index, seg.FuncWarmup)
		}
		if w := cfg.MetricsWindow; w > 0 {
			if seg.warmupTotal()%w != 0 {
				return nil, fmt.Errorf("shard: segment %d warmup %d is not a multiple of the %d-instruction metrics window", seg.Index, seg.warmupTotal(), w)
			}
			if seg.Measure%w != 0 {
				return nil, fmt.Errorf("shard: segment %d measures %d instructions, not a multiple of the %d-instruction metrics window", seg.Index, seg.Measure, w)
			}
		}
		offsets[i] = seg.Offset
	}
	if ix == nil {
		ix = NewIndex()
	}
	pristine, err := ix.Streams(src, offsets)
	if err != nil {
		return nil, err
	}

	jobs := make([]harness.Job[*Payload], len(segs))
	for i := range segs {
		seg := segs[i]
		base := pristine[i]
		key := fmt.Sprintf("%s|shard%d/%d|o%d|w%d|m%d",
			baseKey, seg.Index, len(segs), seg.Offset, seg.Warmup, seg.Measure)
		if seg.FuncWarmup > 0 {
			key += fmt.Sprintf("|f%d", seg.FuncWarmup)
		}
		jobs[i] = harness.Job[*Payload]{
			Key: key,
			Run: func(jc *harness.JobContext) (*Payload, error) {
				s, ok := workload.CloneStream(base)
				if !ok {
					return nil, harness.Permanent(fmt.Errorf("shard: segment %d of source %s stopped being clonable", seg.Index, src.Name))
				}
				return runSegment(cfg, seg, s, jc)
			},
		}
	}
	return jobs, nil
}

// runSegment simulates one positioned segment on a fresh machine under
// the supervisor: the machine is attached for watchdog sampling and
// cooperative kills, and fed through decode-ahead ingestion like every
// other run path.
func runSegment(cfg Config, seg Segment, s workload.Stream, jc *harness.JobContext) (*Payload, error) {
	m, err := sim.NewMachine(cfg.System)
	if err != nil {
		return nil, harness.Permanent(err)
	}
	var w *metrics.Windows
	if cfg.MetricsWindow > 0 {
		w = m.InstrumentMetrics(cfg.MetricsWindow)
	}
	if cfg.BeaconInterval > 0 {
		m.EnableBeacons(cfg.BeaconInterval)
	}
	if cfg.Audit {
		m.EnableAudit(0)
	}
	if jc != nil {
		jc.Attach(m)
	}
	p := workload.Prefetch(s)
	defer p.Close()
	if seg.FuncWarmup > 0 {
		if err := m.WarmFunctional(p, seg.FuncWarmup); err != nil {
			return nil, err
		}
	}
	res, err := m.RunWarmup([]workload.Stream{p}, seg.Warmup, seg.Measure)
	if err != nil {
		return nil, err
	}
	pl := &Payload{Segment: seg, Stats: res.Stats}
	if w != nil {
		pl.Windows = w.Records()
	}
	return pl, nil
}

// Run executes plan on cfg's machine under the harness supervisor and
// stitches the outcome: SegmentJobs + harness.RunAll + Stitch, every
// shard weighted 1. opts.Parallelism defaults to the shard count (the
// scheduler caps real parallelism at GOMAXPROCS); any failed shard fails
// the run with the harness's joined error.
func Run(cfg Config, plan Plan, baseKey string, src Source, ix *Index, opts harness.Options) (*Result, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	segs := plan.Segments()
	jobs, err := SegmentJobs(cfg, segs, baseKey, src, ix)
	if err != nil {
		return nil, err
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = len(jobs)
	}
	outs, err := harness.RunAll(opts, jobs)
	if err != nil {
		return nil, err
	}
	return Stitch(segs, plan.Weights(), outs)
}
