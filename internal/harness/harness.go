// Package harness is the fault-tolerant supervisor every multi-run entry
// point (the experiments sweeps, cmd/itpsweep, cmd/itpbench, cmd/itpsim's
// multi-workload mode) routes simulation jobs through. A paper-scale
// campaign is thousands of independent simulations; one corrupt trace,
// generator bug, or livelocked ingestion source must cost exactly one
// job, not the fleet. Each job therefore runs under a supervisor that
//
//   - converts panics into structured errors (PanicError, with the
//     captured stack) instead of killing the process,
//   - retries transient failures with capped exponential backoff,
//   - enforces an optional per-job wall-clock deadline, and
//   - runs a forward-progress watchdog: it samples the job's
//     retired-instruction counter (any attached Progress implementation,
//     in practice sim.Machine) and kills a run that stops retiring for N
//     consecutive samples, recording a diagnostic snapshot (MSHR/STLB/L2C
//     occupancy) taken through the target's Snapshotter.
//
// Completed results are journaled to a JSON-lines checkpoint keyed by the
// job key (the same key the experiments runner memoises on), so an
// interrupted campaign resumes without re-running finished jobs.
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"itpsim/internal/audit"
)

// Progress is implemented by job payloads whose forward progress the
// watchdog can observe; sim.Machine implements it with its atomic
// retired-instruction counter.
type Progress interface{ Progress() uint64 }

// Interrupter is implemented by payloads that can be asked to stop
// cooperatively at the next safe point (sim.Machine.Interrupt).
type Interrupter interface{ Interrupt() }

// Snapshotter provides a diagnostic dump for stall/deadline reports
// (sim.Machine publishes occupancy state race-safely for this).
type Snapshotter interface{ Snapshot() string }

// Beaconer is implemented by payloads that emit deterministic state
// beacons (sim.Machine with beacons enabled): the chain folds every
// beacon so far, so equal (chain, count) proves two runs passed through
// identical architectural states at every beacon boundary.
type Beaconer interface{ BeaconChain() (chain, count uint64) }

// BeaconStamp is a completed job's final beacon fingerprint, journaled
// with its result so a resumed campaign can verify that a re-run — or a
// recalled cached result — corresponds to the same deterministic
// execution.
type BeaconStamp struct {
	Chain uint64 `json:"chain"`
	Count uint64 `json:"count"`
}

// Options configure a supervised batch.
type Options struct {
	// Parallelism bounds concurrently running jobs. Values <= 0 run one
	// job at a time, so callers pass their own default, such as
	// GOMAXPROCS or a split run's segment count.
	Parallelism int
	// Retries is the number of re-attempts after a transient failure
	// (0 = fail on first error).
	Retries int
	// Backoff is the first retry delay; it doubles per attempt up to
	// MaxBackoff. Defaults: 100ms, capped at 5s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// JobTimeout is the per-job wall-clock deadline (0 = none).
	JobTimeout time.Duration
	// WatchdogInterval is the forward-progress sampling period and
	// WatchdogSamples the number of consecutive no-progress samples that
	// kill a run. Watchdog is off unless both are positive.
	WatchdogInterval time.Duration
	WatchdogSamples  int
	// KillGrace is how long a killed job gets to return after Interrupt
	// before its goroutine is abandoned (default 1s). Abandonment keeps
	// the batch moving even when a job is wedged somewhere that never
	// checks for interrupts.
	KillGrace time.Duration
	// Checkpoint is the JSON-lines journal path ("" = no checkpointing).
	Checkpoint string
	// Seed seeds the retry-backoff jitter so a campaign's retry schedule
	// is reproducible: each job derives its own stream from Seed and its
	// key. Zero still jitters (from the key alone) — determinism comes
	// from the derivation, not from disabling it.
	Seed uint64
	// Logf receives supervision events (retries, kills, resumes); nil
	// discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
	if o.Backoff <= 0 {
		o.Backoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.KillGrace <= 0 {
		o.KillGrace = time.Second
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// PanicError is a panic converted into an error by the supervisor; the
// stack is captured at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("harness: job panicked: %v\n%s", e.Value, e.Stack)
}

// StallError reports a run killed by the forward-progress watchdog.
type StallError struct {
	// Progress is the last sampled forward-progress counter value.
	Progress uint64
	// Samples is how many consecutive samples saw no progress.
	Samples int
	// Interval is the sampling period that was in effect.
	Interval time.Duration
	// Snapshot is the target's diagnostic dump at kill time.
	Snapshot string
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("harness: no forward progress for %d samples (%v apart) at progress=%d; snapshot: %s",
		e.Samples, e.Interval, e.Progress, e.Snapshot)
}

// TimeoutError reports a run killed by the per-job deadline.
type TimeoutError struct {
	Timeout  time.Duration
	Snapshot string
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("harness: job exceeded %v deadline; snapshot: %s", e.Timeout, e.Snapshot)
}

// Permanent marks err as non-retryable: the supervisor fails the job
// immediately instead of burning retry attempts on a deterministic error
// (unknown workload, invalid configuration).
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// retryable reports whether the supervisor should re-attempt after err.
// Panics, stalls, deadline kills, and invariant-audit violations are
// deterministic for a seeded simulator — a retry would fail (or corrupt)
// identically — so only plain (presumed transient) errors are retried.
func retryable(err error) bool {
	var pe *permanentError
	var panicErr *PanicError
	var stallErr *StallError
	var timeoutErr *TimeoutError
	var auditErr *audit.Error
	switch {
	case errors.As(err, &pe),
		errors.As(err, &panicErr),
		errors.As(err, &stallErr),
		errors.As(err, &timeoutErr),
		errors.As(err, &auditErr),
		errors.Is(err, context.Canceled):
		return false
	}
	return true
}

// jitterRNG is a per-job xorshift stream for backoff jitter, derived
// deterministically from the campaign seed and the job key (FNV-1a).
type jitterRNG struct{ s uint64 }

func newJitterRNG(seed uint64, key string) *jitterRNG {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	s := seed ^ h
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &jitterRNG{s: s}
}

func (r *jitterRNG) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

// jitter spreads a backoff over [d/2, d] so retries from a fleet of jobs
// that failed together do not slam their shared resource in lockstep.
func (r *jitterRNG) jitter(d time.Duration) time.Duration {
	if d <= time.Duration(1) {
		return d
	}
	half := d / 2
	return half + time.Duration(r.next()%uint64(half+1))
}

// Job is one supervised unit of work. Key must be stable across processes
// (it is the checkpoint/memoisation identity); Run produces the result.
type Job[R any] struct {
	Key string
	Run func(jc *JobContext) (R, error)
}

// Outcome is the per-job verdict of a batch.
type Outcome[R any] struct {
	Key      string
	Result   R
	Err      error
	Attempts int
	// Cached marks results recalled from the checkpoint journal rather
	// than recomputed.
	Cached bool
	// Beacon is the job's final deterministic-state fingerprint, when its
	// attached target was a Beaconer with beacons enabled — recalled from
	// the journal for cached results, sampled at completion otherwise.
	Beacon *BeaconStamp
}

// JobContext is handed to each job attempt: it carries the cancellation
// context and receives the watchdog target via Attach.
type JobContext struct {
	ctx     context.Context
	attempt int

	mu     sync.Mutex
	target any
}

// Context returns the attempt's context; it is cancelled on deadline
// expiry or watchdog kill, and ingestion sources should observe it.
func (jc *JobContext) Context() context.Context { return jc.ctx }

// Attempt returns the zero-based attempt number (>0 means retry).
func (jc *JobContext) Attempt() int { return jc.attempt }

// Attach registers the job's payload with the supervisor. If it
// implements Progress the watchdog starts sampling it; Interrupter and
// Snapshotter enable cooperative kills and diagnostic dumps.
func (jc *JobContext) Attach(target any) {
	jc.mu.Lock()
	jc.target = target
	jc.mu.Unlock()
}

// progress samples the attached target; ok is false when no Progress
// implementation is attached (the watchdog then stays quiet).
func (jc *JobContext) progress() (v uint64, ok bool) {
	jc.mu.Lock()
	t := jc.target
	jc.mu.Unlock()
	if p, isP := t.(Progress); isP {
		return p.Progress(), true
	}
	return 0, false
}

// snapshot collects the target's diagnostic dump, if it offers one.
func (jc *JobContext) snapshot() string {
	jc.mu.Lock()
	t := jc.target
	jc.mu.Unlock()
	if s, isS := t.(Snapshotter); isS {
		return s.Snapshot()
	}
	return "(target offers no snapshot)"
}

// beacon samples the target's final beacon stamp, if it emits beacons.
func (jc *JobContext) beacon() *BeaconStamp {
	jc.mu.Lock()
	t := jc.target
	jc.mu.Unlock()
	if b, isB := t.(Beaconer); isB {
		if chain, count := b.BeaconChain(); count > 0 {
			return &BeaconStamp{Chain: chain, Count: count}
		}
	}
	return nil
}

// interruptTarget asks the target to stop cooperatively.
func (jc *JobContext) interruptTarget() {
	jc.mu.Lock()
	t := jc.target
	jc.mu.Unlock()
	if i, isI := t.(Interrupter); isI {
		i.Interrupt()
	}
}

type attemptResult[R any] struct {
	r   R
	b   *BeaconStamp
	err error
}

// runAttempt executes one attempt of job under full supervision.
func runAttempt[R any](o Options, job Job[R], attempt int) (R, *BeaconStamp, error) {
	ctx := context.Background()
	cancel := func() {}
	if o.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, o.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	jc := &JobContext{ctx: ctx, attempt: attempt}

	resCh := make(chan attemptResult[R], 1)
	// The attempt goroutine cannot be force-killed: after KillGrace the
	// supervisor abandons it by design (a wedged Run must not wedge the
	// whole harness), so there is deliberately no join path.
	//itp:daemon attempt body; abandoned after KillGrace by design, supervisor stops waiting and moves on
	go func() {
		defer func() {
			if v := recover(); v != nil {
				var zero R
				resCh <- attemptResult[R]{zero, nil, &PanicError{Value: v, Stack: debug.Stack()}}
			}
		}()
		r, err := job.Run(jc)
		// The beacon stamp is sampled on the job goroutine, after the run
		// returned, so it reflects the target's final quiescent state.
		resCh <- attemptResult[R]{r, jc.beacon(), err}
	}()

	// kill interrupts the job and gives it KillGrace to come back before
	// the goroutine is abandoned; kerr is authoritative either way.
	kill := func(kerr error) (R, *BeaconStamp, error) {
		jc.interruptTarget()
		cancel()
		select {
		case res := <-resCh:
			return res.r, res.b, kerr
		case <-time.After(o.KillGrace):
			o.logf("harness: job %s: abandoning unresponsive goroutine after %v grace", job.Key, o.KillGrace)
			var zero R
			return zero, nil, kerr
		}
	}

	var tick <-chan time.Time
	if o.WatchdogInterval > 0 && o.WatchdogSamples > 0 {
		t := time.NewTicker(o.WatchdogInterval)
		defer t.Stop()
		tick = t.C
	}
	var lastProgress uint64
	sawProgress := false
	stalls := 0
	for {
		select {
		case res := <-resCh:
			return res.r, res.b, res.err
		case <-ctx.Done():
			if errors.Is(context.Cause(ctx), context.DeadlineExceeded) {
				o.logf("harness: job %s: deadline %v exceeded, killing", job.Key, o.JobTimeout)
				return kill(&TimeoutError{Timeout: o.JobTimeout, Snapshot: jc.snapshot()})
			}
			return kill(context.Cause(ctx))
		case <-tick:
			p, ok := jc.progress()
			if !ok {
				continue // nothing attached yet: cannot judge progress
			}
			if !sawProgress || p > lastProgress {
				lastProgress, sawProgress, stalls = p, true, 0
				continue
			}
			stalls++
			if stalls >= o.WatchdogSamples {
				o.logf("harness: job %s: watchdog fired (%d samples without progress at %d), killing",
					job.Key, stalls, p)
				// Snapshot before the kill so the dump reflects the
				// wedged state, not the unwound one.
				snap := jc.snapshot()
				return kill(&StallError{
					Progress: p, Samples: stalls, Interval: o.WatchdogInterval, Snapshot: snap,
				})
			}
		}
	}
}

// supervise runs one job to completion, applying the retry policy with
// deterministic, seeded backoff jitter.
func supervise[R any](o Options, job Job[R]) (R, *BeaconStamp, error, int) {
	var (
		r   R
		b   *BeaconStamp
		err error
	)
	jr := newJitterRNG(o.Seed, job.Key)
	for attempt := 0; ; attempt++ {
		r, b, err = runAttempt(o, job, attempt)
		if err == nil {
			return r, b, nil, attempt + 1
		}
		if attempt >= o.Retries || !retryable(err) {
			return r, b, err, attempt + 1
		}
		backoff := o.Backoff << attempt
		if backoff > o.MaxBackoff || backoff <= 0 {
			backoff = o.MaxBackoff
		}
		backoff = jr.jitter(backoff)
		o.logf("harness: job %s: attempt %d failed (%v), retrying in %v", job.Key, attempt+1, err, backoff)
		time.Sleep(backoff)
	}
}

// RunAll executes jobs under supervision with bounded parallelism,
// preserving input order in the outcomes. The returned error is the
// errors.Join of every failed job (nil when all succeeded); successful
// results are always present in the outcomes regardless of other jobs'
// failures.
func RunAll[R any](o Options, jobs []Job[R]) ([]Outcome[R], error) {
	o = o.withDefaults()

	var ckpt *checkpoint
	if o.Checkpoint != "" {
		var err error
		ckpt, err = openCheckpoint(o.Checkpoint, o.logf)
		if err != nil {
			return nil, fmt.Errorf("harness: checkpoint: %w", err)
		}
		defer func() {
			if cerr := ckpt.close(); cerr != nil {
				o.logf("harness: checkpoint close: %v", cerr)
			}
		}()
	}

	outs := make([]Outcome[R], len(jobs))
	sem := make(chan struct{}, o.Parallelism)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := jobs[i]
			outs[i].Key = job.Key
			if ckpt != nil {
				var r R
				if beacon, ok, err := ckpt.lookup(job.Key, &r); err != nil {
					o.logf("harness: job %s: ignoring corrupt checkpoint entry: %v", job.Key, err)
				} else if ok {
					outs[i].Result, outs[i].Cached, outs[i].Beacon = r, true, beacon
					return
				}
			}
			sem <- struct{}{}
			defer func() { <-sem }()
			r, b, err, attempts := supervise(o, job)
			outs[i].Result, outs[i].Err, outs[i].Attempts, outs[i].Beacon = r, err, attempts, b
			if err == nil && ckpt != nil {
				if cerr := ckpt.record(job.Key, r, b); cerr != nil {
					o.logf("harness: job %s: checkpoint write failed: %v", job.Key, cerr)
				}
			}
		}(i)
	}
	wg.Wait()

	var errs []error
	for i := range outs {
		if outs[i].Err != nil {
			errs = append(errs, fmt.Errorf("job %s (attempt %d): %w", outs[i].Key, outs[i].Attempts, outs[i].Err))
		}
	}
	return outs, errors.Join(errs...)
}
