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

// Config describes one sharded simulation.
type Config struct {
	// System is the machine configuration every shard runs.
	System config.SystemConfig
	// Plan is the shard layout.
	Plan Plan
	// BeaconInterval arms per-shard deterministic state beacons every N
	// retired instructions (0 = off). Each shard's final chain is sampled
	// by the harness and journaled with its checkpoint record; in the
	// 1-shard plan the single chain is bit-identical to the serial run's.
	BeaconInterval uint64
	// Audit arms the periodic structural invariant auditor on every shard
	// machine (at its default interval).
	Audit bool
	// MetricsWindow sizes the per-shard window series in retired
	// instructions (0 = no window series). When set, the per-shard warmup
	// and every segment length must be window multiples so the stitched
	// series stays gap-free across shard boundaries; Jobs rejects
	// misaligned plans.
	MetricsWindow uint64
}

// validate extends Plan validation with the window-alignment rule.
func (c Config) validate() error {
	if err := c.Plan.Validate(); err != nil {
		return err
	}
	if c.System.Cores > 1 {
		// A sharded run splits ONE stream's measured region; a CMP run
		// interleaves N streams whose interference must be simulated
		// whole (like SMT pairs, which the callers also run unsharded).
		return fmt.Errorf("shard: multi-core runs (Cores=%d) must run whole; sharding splits a single stream", c.System.Cores)
	}
	if w := c.MetricsWindow; w > 0 {
		if c.Plan.Warmup%w != 0 {
			return fmt.Errorf("shard: warmup %d is not a multiple of the %d-instruction metrics window", c.Plan.Warmup, w)
		}
		for _, seg := range c.Plan.Segments() {
			if seg.Measure%w != 0 {
				return fmt.Errorf("shard: segment %d measures %d instructions, not a multiple of the %d-instruction metrics window", seg.Index, seg.Measure, w)
			}
		}
	}
	return nil
}

// Payload is the journaled result of one shard job: the segment it
// simulated (stitching re-verifies it against the plan, so a checkpoint
// from a different plan cannot be stitched silently), the measured
// statistics, and the window series when sampling was armed.
type Payload struct {
	Segment Segment                `json:"segment"`
	Stats   *stats.Sim             `json:"stats"`
	Windows []metrics.WindowRecord `json:"windows,omitempty"`
}

// Jobs builds one supervised harness job per segment of cfg.Plan, in
// segment order. Job keys are baseKey|shard i/K|o…w…m…, stable across
// processes for checkpoint resume. Positioning happens eagerly here (one
// serial pass, through ix when non-nil so repeated runs reuse snapshots);
// each job re-clones its pristine stream per attempt, so retries replay
// the identical segment.
func Jobs(cfg Config, baseKey string, src Source, ix *Index) ([]harness.Job[*Payload], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return SegmentJobs(cfg, cfg.Plan.Segments(), baseKey, src, ix)
}

// SegmentJobs builds one supervised job per segment — the job engine
// behind Jobs (plan tilings) and internal/sample (representative
// intervals, which are arbitrary window slices rather than a uniform
// tiling). Segments must be offset-ascending; each is validated for
// window alignment and functional-warmup shape independently of any
// Plan. Keys append |f<n> only for segments with functional warmup, so
// pre-existing checkpoint keys stay stable.
func SegmentJobs(cfg Config, segs []Segment, baseKey string, src Source, ix *Index) ([]harness.Job[*Payload], error) {
	if cfg.System.Cores > 1 {
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
	var pristine []workload.Stream
	var err error
	if ix != nil {
		pristine, err = ix.Streams(src, offsets)
	} else {
		pristine, _, err = position(src, offsets)
	}
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
				s, err := segmentStream(base, src, seg, jc.Attempt())
				if err != nil {
					return nil, err
				}
				return runSegment(cfg, seg, s, jc)
			},
		}
	}
	return jobs, nil
}

// segmentStream yields the stream one attempt consumes. Clonable bases
// are re-cloned per attempt; a non-clonable base is single-use, so
// retries reposition a fresh stream from the source.
func segmentStream(base workload.Stream, src Source, seg Segment, attempt int) (workload.Stream, error) {
	if c, ok := workload.CloneStream(base); ok {
		return c, nil
	}
	if attempt == 0 {
		return base, nil
	}
	fresh := src.New()
	if got := workload.Skip(fresh, seg.Offset); got != seg.Offset {
		return nil, harness.Permanent(fmt.Errorf("shard: source %s ended after %d instructions repositioning for retry, need offset %d", src.Name, got, seg.Offset))
	}
	return fresh, nil
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

// Run executes the whole plan under the harness supervisor and stitches
// the outcome: Jobs + harness.RunAll + Stitch. opts.Parallelism defaults
// to the shard count (the scheduler caps real parallelism at GOMAXPROCS);
// any failed shard fails the run with the harness's joined error.
func Run(cfg Config, baseKey string, src Source, ix *Index, opts harness.Options) (*Result, error) {
	jobs, err := Jobs(cfg, baseKey, src, ix)
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
	return Stitch(cfg, outs)
}
