package sample

import (
	"fmt"

	"itpsim/internal/harness"
	"itpsim/internal/shard"
)

// Result is a stitched sampled run: the shard engine's weighted stitch
// of the plan's representatives. Stats is the phase-occupancy-weighted
// sum of the representatives' measured statistics — every counter of
// representative r is scaled by r.Weight, so totals correspond to the
// full measured region and ratio metrics (IPC, MPKI, hit rates)
// recompute as weighted estimates of the full run's.
type Result struct {
	*shard.Result
	Plan *Plan
	// Reps is the stitch's per-segment results in stream order: Reps[i]
	// ran Plan.Reps[i].
	Reps []shard.SegmentResult
}

// shardConfig maps the sampling configuration onto the shard job engine.
// Representatives never sample windows themselves (the plan already owns
// the window structure), so MetricsWindow stays 0 and no alignment rule
// binds the warmup split.
func (p *Plan) shardConfig() shard.Config {
	return shard.Config{
		System:         p.Config.System,
		BeaconInterval: p.Config.BeaconInterval,
		Audit:          p.Config.Audit,
	}
}

// Jobs builds one supervised harness job per representative, keyed under
// baseKey|sampleK/w… so sampled checkpoints never collide with sharded
// ones for the same workload and configuration.
func (p *Plan) Jobs(baseKey string, src shard.Source, ix *shard.Index) ([]harness.Job[*shard.Payload], error) {
	if err := p.Config.Validate(); err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|sample%d/w%d", baseKey, p.Config.Phases, p.Config.Window)
	return shard.SegmentJobs(p.shardConfig(), p.Segments(), key, src, ix)
}

// Stitch combines per-representative outcomes (indexed like Jobs) into
// one Result: shard.Stitch over the plan's segments, weighted by phase
// occupancy.
func (p *Plan) Stitch(outs []harness.Outcome[*shard.Payload]) (*Result, error) {
	res, err := shard.Stitch(p.Segments(), p.Weights(), outs)
	if err != nil {
		return nil, err
	}
	return &Result{Result: res, Plan: p, Reps: res.Segments}, nil
}

// Run executes one sampled simulation end to end: plan (through the
// profile cache), representative jobs under the harness supervisor,
// weighted stitch. profiles may be nil (a throwaway cache); ix may be nil
// (no cross-run position snapshots).
func Run(cfg Config, baseKey string, src shard.Source, ix *shard.Index, profiles *Profiles, opts harness.Options) (*Result, error) {
	if profiles == nil {
		profiles = NewProfiles()
	}
	plan, err := profiles.Plan(cfg, src)
	if err != nil {
		return nil, err
	}
	jobs, err := plan.Jobs(baseKey, src, ix)
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
	return plan.Stitch(outs)
}
