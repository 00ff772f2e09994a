package sim

import (
	"itpsim/internal/arch"
	"itpsim/internal/metrics"
	"itpsim/internal/stats"
)

// machineMetrics is the machine's attachment to the observability layer:
// the windowed sampler that turns snapshots of the machine's own counters
// into a per-1000-instruction time series.
type machineMetrics struct {
	windows *metrics.Windows
	// next is the retired-instruction count at which the current window
	// closes; cached here so the per-retire check is one compare.
	next arch.Instr
}

// InstrumentMetrics attaches the windowed sampler to the machine and
// returns it. windowInstr is the sampling window in retired instructions
// (0 selects metrics.DefaultWindow, the paper's 1000-instruction adaptive
// window). Must be called before Run; the returned sampler is safe to
// read from other goroutines while the run is in flight.
func (m *Machine) InstrumentMetrics(windowInstr uint64) *metrics.Windows {
	w := metrics.NewWindows(arch.Instr(windowInstr), m.counters())
	m.met = &machineMetrics{windows: w, next: w.Size()}
	return w
}

// counters snapshots the nine counts a metrics window reports, read from
// stats.Sim where it holds them and from three plain component counters
// where it does not:
//
//	stlb.demand_miss.{instr,data}   demand STLB misses by class (all tenants)
//	l1i.demand_miss                 L1I demand misses (all cores)
//	l2c.demand_miss                 L2C demand misses
//	ptw.walk.{instr,data}           completed page walks by class
//	l2c.evict.{pte,data_pte}        L2C evictions of PTE / data-PTE blocks
//	branch.mispredict               branch mispredicts
//
// The per-tenant views are the live STLB and L1I counts; their
// machine-level aggregates are only rebuilt at run end.
func (m *Machine) counters() metrics.Counters {
	c := metrics.Counters{
		BranchMispredict: m.branchMispredicts,
		L2CDemandMiss:    m.Stats.L2C.TotalMisses(),
		L2CEvictDataPTE:  m.l2c.EvictDataPTE,
		L2CEvictPTE:      m.l2c.EvictPTE,
		PTWWalkData:      m.Stats.PageWalks[arch.DataClass],
		PTWWalkInstr:     m.Stats.PageWalks[arch.InstrClass],
	}
	for i := range m.Stats.Cores {
		t := &m.Stats.Cores[i]
		c.L1IDemandMiss += t.L1I.TotalMisses()
		c.STLBDemandMissData += t.STLB.Misses[stats.BData]
		c.STLBDemandMissInstr += t.STLB.Misses[stats.BInstr]
	}
	return c
}

// Metrics returns the attached windowed sampler, or nil.
func (m *Machine) Metrics() *metrics.Windows {
	if m.met == nil {
		return nil
	}
	return m.met.windows
}

// resetMeasured is the warmup→measure statistics reset. An attached
// sampler rebases its open window across it, so the window that spans
// the boundary still counts the events on both sides.
func (m *Machine) resetMeasured() {
	if m.met == nil {
		m.Stats.ResetMeasured()
		return
	}
	before := m.counters()
	m.Stats.ResetMeasured()
	m.met.windows.Rebase(before, m.counters())
}

// closeMetricsWindow ends the current sampling window at the given
// cumulative retired count, with the adaptive controller's status bit
// as it stands after the controller judged its own window. Called from
// the run loop only.
func (m *Machine) closeMetricsWindow(retired arch.Instr) {
	mm := m.met
	var xptp *bool
	if m.ctrl != nil {
		enabled := m.ctrl.Enabled()
		xptp = &enabled
	}
	mm.windows.Close(retired, m.maxRetireCycle, m.counters(), xptp)
	mm.next += mm.windows.Size()
}
