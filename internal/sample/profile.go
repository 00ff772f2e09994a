package sample

import (
	"fmt"
	"sync"

	"itpsim/internal/config"
	"itpsim/internal/metrics"
	"itpsim/internal/shard"
	"itpsim/internal/sim"
	"itpsim/internal/workload"
)

// ProfileConfig is the baseline machine configuration of the profiling
// pre-pass: the system under study with every replacement policy forced
// to LRU. Phase structure is a property of the workload's access stream,
// not of the policy being evaluated, so one profile serves every policy
// point of a sweep — that amortisation is where sampling's speedup over
// serial simulation comes from in a campaign.
func ProfileConfig(sys config.SystemConfig) config.SystemConfig {
	sys.STLBPolicy = "lru"
	sys.L2CPolicy = "lru"
	sys.LLCPolicy = "lru"
	return sys
}

// Profile runs the profiling pre-pass: one detailed serial simulation of
// warmup+measure instructions at the baseline configuration, returning
// the per-window metric series the classifier clusters. attach, when
// non-nil, receives the machine before the run starts (harness watchdog
// wiring).
func Profile(cfg Config, src shard.Source, attach func(*sim.Machine)) ([]metrics.WindowRecord, error) {
	m, err := sim.NewMachine(ProfileConfig(cfg.System))
	if err != nil {
		return nil, err
	}
	w := m.InstrumentMetrics(cfg.Window)
	if attach != nil {
		attach(m)
	}
	p := workload.Prefetch(src.New())
	defer p.Close()
	if _, err := m.RunWarmup([]workload.Stream{p}, 0, cfg.Warmup+cfg.Measure); err != nil {
		return nil, fmt.Errorf("sample: profile of %s: %w", src.Name, err)
	}
	return w.Records(), nil
}

// Profiles caches profiling pre-passes across a sweep, keyed by workload
// and profile geometry (baseline configuration, window, warmup, measure)
// — the policy fields under study are deliberately absent from the key,
// since the profile forces them to the baseline. Concurrent Get calls
// for the same key share one run.
type Profiles struct {
	mu sync.Mutex
	m  map[string]*profileEntry
}

type profileEntry struct {
	once sync.Once
	recs []metrics.WindowRecord
	err  error
}

// NewProfiles returns an empty profile cache.
func NewProfiles() *Profiles { return &Profiles{m: make(map[string]*profileEntry)} }

// key identifies one profile. The full baseline config is serialised in:
// geometry fields (cache sizes, TLB shapes, huge-page fraction, ...) all
// shift the profile's metric series.
func (p *Profiles) key(cfg Config, src shard.Source) string {
	return fmt.Sprintf("%s|w%d|wu%d|m%d|%+v", src.Name, cfg.Window, cfg.Warmup, cfg.Measure, ProfileConfig(cfg.System))
}

// Get returns the cached profile for (cfg, src), running the pre-pass on
// first use. attach is forwarded to Profile on the goroutine that runs
// it.
func (p *Profiles) Get(cfg Config, src shard.Source, attach func(*sim.Machine)) ([]metrics.WindowRecord, error) {
	k := p.key(cfg, src)
	p.mu.Lock()
	e, ok := p.m[k]
	if !ok {
		e = &profileEntry{}
		p.m[k] = e
	}
	p.mu.Unlock()
	e.once.Do(func() {
		e.recs, e.err = Profile(cfg, src, attach)
	})
	return e.recs, e.err
}
