package run

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"

	"itpsim/internal/harness"
	"itpsim/internal/metrics"
	"itpsim/internal/sample"
	"itpsim/internal/shard"
	"itpsim/internal/sim"
	"itpsim/internal/stats"
	"itpsim/internal/trace"
	"itpsim/internal/workload"
)

// Result is one spec's outcome.
type Result struct {
	// Stats is the measured record: the whole run's, or the stitched sum
	// of a split run's segments. Nil when Err is set.
	Stats *stats.Sim
	Err   error
	// Attempts is the most attempts any of the run's jobs took; Cached
	// reports that every job was recalled from the checkpoint journal.
	Attempts int
	Cached   bool
	// Beacon is the final state fingerprint when it is comparable with a
	// serial run: a whole run's chain, or a 1-shard/1-phase run's.
	Beacon *harness.BeaconStamp
	// Split carries the per-segment detail of a split run, and Plan the
	// representatives a phase-sampled run chose (Split.Segments[i] ran
	// Plan.Reps[i]).
	Split *shard.Result
	Plan  *sample.Plan
}

// Arm is a batch's observability beyond what a Spec pins; nil observes
// nothing.
type Arm struct {
	// Tool prefixes export error lines and expvar names.
	Tool string
	// Export receives every run's metrics window series: whole runs write
	// windows as they close, sharded runs write the stitched series once
	// stitched. Phase-sampled runs have none (Flags.Check rejects them).
	Export *metrics.JSONL
	// Expvar publishes each whole run's recent windows on /debug/vars.
	Expvar bool
	// Window is the -metrics-window setting (see MetricsWindow).
	Window uint64
	// Label names spec i in the export; nil uses Spec.name.
	Label func(i int) string
	// Stream, when set, wraps each whole-run input stream per attempt.
	Stream func(s workload.Stream, attempt int) workload.Stream
}

func (a *Arm) label(i int, s *Spec) string {
	if a != nil && a.Label != nil {
		return a.Label(i)
	}
	return s.name()
}

// sink returns the export sink for one labelled run.
func (a *Arm) sink(label string) func(*metrics.WindowRecord) {
	return a.Export.WindowSink(label, func(err error) {
		fmt.Fprintf(os.Stderr, "%s: metrics export (%s): %v\n", a.Tool, label, err)
	})
}

// machine instruments a whole run's machine for export and /debug/vars.
func (a *Arm) machine(m *sim.Machine, s *Spec, label string) {
	if a == nil || (a.Export == nil && !a.Expvar) {
		return
	}
	w := m.InstrumentMetrics(MetricsWindow(s.System, a.Window))
	if a.Export != nil {
		w.SetSink(a.sink(label))
	}
	if a.Expvar {
		w.PublishExpvar(a.Tool + "." + label)
	}
}

// Runner executes specs. It owns the workload catalogue, the shard
// positioning index and the sampling profiles, which every batch it runs
// shares, and memoises completed results by Key, so a shared baseline
// simulates once per Runner.
type Runner struct {
	Catalog  *workload.Catalog
	Index    *shard.Index
	Profiles *sample.Profiles

	mu   sync.Mutex
	memo map[string]Result
}

// NewRunner returns a Runner over cat.
func NewRunner(cat *workload.Catalog) *Runner {
	return &Runner{Catalog: cat, Index: shard.NewIndex(), Profiles: sample.NewProfiles(), memo: make(map[string]Result)}
}

type segJobs = []harness.Job[*shard.Payload]
type segOuts = []harness.Outcome[*shard.Payload]

// Execute runs specs under the harness supervisor and returns one Result
// per spec, in order. Each spec expands into one whole-run job or into
// its segment jobs; all of them run in a single harness.RunAll, so a
// shared checkpoint journal keeps one writer. Specs already in the memo,
// and repeats of an earlier key in the batch, run nothing. Healthy
// results are returned even when others fail; the error joins every
// failure. The result slice is nil only when the batch could not start.
func (r *Runner) Execute(o harness.Options, specs []Spec, arm *Arm) ([]Result, error) {
	type span struct {
		start, n int
		stitch   func(segOuts) (Result, error) // nil: whole run or settled
		dup      int                           // >= 0: same key as specs[dup]
		done     bool                          // settled before the batch ran
	}
	res := make([]Result, len(specs))
	spans := make([]span, len(specs))
	keys := make([]string, len(specs))
	seen := make(map[string]int, len(specs))
	var flat segJobs
	var errs []error
	fail := func(i int, err error) {
		res[i].Err = err
		spans[i].done = true
		errs = append(errs, fmt.Errorf("%s: %w", keys[i], err))
	}
	for i := range specs {
		s := &specs[i]
		keys[i] = s.Key()
		spans[i].dup = -1
		if err := s.Validate(); err != nil {
			fail(i, err)
			continue
		}
		r.mu.Lock()
		m, ok := r.memo[keys[i]]
		r.mu.Unlock()
		if ok {
			res[i], spans[i].done = m, true
			continue
		}
		if first, ok := seen[keys[i]]; ok {
			spans[i].dup = first
			continue
		}
		seen[keys[i]] = i
		var jobs segJobs
		var stitch func(segOuts) (Result, error)
		if s.Split() {
			var err error
			if jobs, stitch, err = r.split(s, keys[i], arm, arm.label(i, s)); err != nil {
				fail(i, err)
				continue
			}
		} else {
			jobs = segJobs{r.whole(s, keys[i], arm, arm.label(i, s))}
		}
		spans[i] = span{start: len(flat), n: len(jobs), stitch: stitch, dup: -1}
		flat = append(flat, jobs...)
	}

	outs, runErr := harness.RunAll(o, flat)
	if outs == nil {
		return nil, runErr
	}
	if runErr != nil {
		errs = append([]error{runErr}, errs...)
	}
	for i := range specs {
		sp := spans[i]
		switch {
		case sp.done:
			continue
		case sp.dup >= 0:
			res[i] = res[sp.dup]
			continue
		}
		seg := outs[sp.start : sp.start+sp.n]
		if sp.stitch == nil {
			o := seg[0]
			res[i] = Result{Err: o.Err, Attempts: o.Attempts, Cached: o.Cached, Beacon: o.Beacon}
			switch {
			case o.Err != nil: // joined into runErr by the harness
			case o.Result == nil || o.Result.Stats == nil:
				res[i].Err = errors.New("empty whole-run payload (stale checkpoint?)")
				errs = append(errs, fmt.Errorf("%s: %w", keys[i], res[i].Err))
			default:
				res[i].Stats = o.Result.Stats
			}
		} else {
			var err error
			if res[i], err = sp.stitch(seg); err != nil {
				// The failing segments are already in runErr; this adds
				// which run they sank.
				res[i].Err = err
				errs = append(errs, fmt.Errorf("%s: %w", keys[i], err))
			}
			res[i].Cached = true
			for _, o := range seg {
				res[i].Attempts = max(res[i].Attempts, o.Attempts)
				res[i].Cached = res[i].Cached && o.Cached
			}
		}
		if res[i].Err == nil {
			r.mu.Lock()
			r.memo[keys[i]] = res[i]
			r.mu.Unlock()
		}
	}
	return res, errors.Join(errs...)
}

// whole builds the one supervised job of an unsplit run.
func (r *Runner) whole(s *Spec, key string, arm *Arm, label string) harness.Job[*shard.Payload] {
	return harness.Job[*shard.Payload]{Key: key, Run: func(jc *harness.JobContext) (*shard.Payload, error) {
		streams, err := r.streams(s)
		if err != nil {
			// Unknown workloads and unreadable traces stay so on retry.
			return nil, harness.Permanent(err)
		}
		m, err := sim.NewMachine(s.System)
		if err != nil {
			return nil, harness.Permanent(err)
		}
		jc.Attach(m)
		if s.BeaconInterval > 0 {
			m.EnableBeacons(s.BeaconInterval)
		}
		if s.Audit {
			m.EnableAudit(0)
		}
		arm.machine(m, s, label)
		for i, st := range streams {
			// Context-aware sources unblock when the supervisor kills the
			// job; bind the originals before the decode-ahead wrap hides
			// them.
			if b, ok := st.(interface{ Bind(context.Context) }); ok {
				b.Bind(jc.Context())
			}
			if arm != nil && arm.Stream != nil {
				st = arm.Stream(st, jc.Attempt())
			}
			// Decode-ahead ingestion: generation or trace decode overlaps
			// the simulation.
			p := workload.Prefetch(st)
			defer p.Close()
			streams[i] = p
		}
		out, err := m.RunWarmup(streams, s.Warmup, s.Measure)
		if err != nil {
			return nil, err
		}
		return &shard.Payload{Stats: out.Stats}, nil
	}}
}

// streams opens a whole run's input: the trace, or one fresh stream per
// tenant, cycled to fill every core of a CMP.
func (r *Runner) streams(s *Spec) ([]workload.Stream, error) {
	if s.Trace != "" {
		f, err := os.Open(s.Trace)
		if err != nil {
			return nil, err
		}
		rd, err := trace.NewReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		return []workload.Stream{rd}, nil
	}
	n := len(s.Tenants)
	if s.System.Cores > 1 {
		n = s.System.Cores
	}
	streams := make([]workload.Stream, n)
	for i := range streams {
		w, err := r.Catalog.Get(s.Tenants[i%len(s.Tenants)])
		if err != nil {
			return nil, err
		}
		streams[i] = w.NewStream()
	}
	return streams, nil
}

// split expands a sharded, functionally warmed or phase-sampled spec into
// its segment jobs and the stitch that folds their outcomes back into one
// Result. Sampling profiles run here, synchronously, through the shared
// profile cache: every policy point over one (workload, geometry) reuses
// one profile.
func (r *Runner) split(s *Spec, key string, arm *Arm, label string) (segJobs, func(segOuts) (Result, error), error) {
	w, err := r.Catalog.Get(s.Tenants[0])
	if err != nil {
		return nil, nil, err
	}
	src := shard.Source{Name: s.Tenants[0], New: w.NewStream}
	var (
		jobs    segJobs
		segs    []shard.Segment
		weights []uint64
		plan    *sample.Plan
		window  uint64
	)
	if s.Phases > 0 {
		if plan, err = r.Profiles.Plan(s.sampleConfig(), src); err != nil {
			return nil, nil, err
		}
		segs, weights = plan.Segments(), plan.Weights()
		jobs, err = plan.Jobs(key, src, r.Index)
	} else {
		if arm != nil && arm.Export != nil {
			window = MetricsWindow(s.System, arm.Window)
		}
		tiling := s.shardPlan()
		segs, weights = tiling.Segments(), tiling.Weights()
		jobs, err = shard.SegmentJobs(s.segmentConfig(window), segs, key, src, r.Index)
	}
	return jobs, func(outs segOuts) (Result, error) {
		sr, err := shard.Stitch(segs, weights, outs)
		if err != nil {
			return Result{}, err
		}
		if window > 0 {
			sink := arm.sink(label)
			for i := range sr.Windows {
				sink(&sr.Windows[i])
			}
		}
		return Result{Stats: sr.Stats, Beacon: sr.Beacon(), Split: sr, Plan: plan}, nil
	}, err
}
