package sim

import (
	"itpsim/internal/arch"
	"itpsim/internal/metrics"
	"itpsim/internal/stats"
)

// machineMetrics is the machine's attachment to the observability layer:
// the windowed sampler that turns the machine's own counters into a
// per-1000-instruction time series, and the adaptive controller's last
// decision so each window record carries the xPTP status bit that
// governed it.
type machineMetrics struct {
	windows *metrics.Windows
	// next is the retired-instruction count at which the current window
	// closes; cached here so the per-retire check is one compare.
	next arch.Instr

	// xptpEnabled is the adaptive controller's most recent decision.
	xptpEnabled bool

	// annotate decorates each closing window; built once at attach time
	// so the per-window close does not allocate a closure.
	annotate func(*metrics.WindowRecord)
}

// InstrumentMetrics attaches the windowed sampler to the machine and
// returns it. windowInstr is the sampling window in retired instructions
// (0 selects metrics.DefaultWindow, the paper's 1000-instruction adaptive
// window). Must be called before Run; the returned sampler is safe to
// read from other goroutines while the run is in flight.
//
// Each window record carries the deltas of nine counters, read from
// stats.Sim where it holds them and from three plain component counters
// where it does not:
//
//	stlb.demand_miss.{instr,data}   demand STLB misses by class (all tenants)
//	l1i.demand_miss                 L1I demand misses (all cores)
//	l2c.demand_miss                 L2C demand misses
//	ptw.walk.{instr,data}           completed page walks by class
//	l2c.evict.{pte,data_pte}        L2C evictions of PTE / data-PTE blocks
//	branch.mispredict               branch mispredicts
func (m *Machine) InstrumentMetrics(windowInstr uint64) *metrics.Windows {
	mm := &machineMetrics{windows: metrics.NewWindows(arch.Instr(windowInstr))}
	w := mm.windows
	// The per-tenant views are the live STLB and L1I counts; their
	// machine-level aggregates are only rebuilt at run end.
	w.Track("stlb.demand_miss.instr", func() uint64 {
		return m.tenantSum(func(c *stats.Core) uint64 { return c.STLB.Misses[stats.BInstr] })
	})
	w.Track("stlb.demand_miss.data", func() uint64 {
		return m.tenantSum(func(c *stats.Core) uint64 { return c.STLB.Misses[stats.BData] })
	})
	w.Track("l2c.evict.pte", func() uint64 { return m.l2c.EvictPTE })
	w.Track("l2c.evict.data_pte", func() uint64 { return m.l2c.EvictDataPTE })
	w.Track("ptw.walk.instr", func() uint64 { return m.Stats.PageWalks[arch.InstrClass] })
	w.Track("ptw.walk.data", func() uint64 { return m.Stats.PageWalks[arch.DataClass] })
	// Phase-classification features (internal/sample): per-window L1I and
	// L2C demand-miss and branch-mispredict deltas.
	w.Track("l1i.demand_miss", func() uint64 {
		return m.tenantSum(func(c *stats.Core) uint64 { return c.L1I.TotalMisses() })
	})
	w.Track("l2c.demand_miss", m.Stats.L2C.TotalMisses)
	w.Track("branch.mispredict", func() uint64 { return m.branchMispredicts })

	if m.ctrl != nil {
		mm.xptpEnabled = m.ctrl.Enabled()
		m.ctrl.SetDecisionHook(func(enabled bool, _ int) { mm.xptpEnabled = enabled })
	}

	mm.annotate = func(rec *metrics.WindowRecord) {
		if rec.Instr > 0 {
			k := 1000 / float64(rec.Instr)
			rec.STLBMPKIInstr = float64(rec.Counters["stlb.demand_miss.instr"]) * k
			rec.STLBMPKIData = float64(rec.Counters["stlb.demand_miss.data"]) * k
		}
		if m.ctrl != nil {
			rec.SetXPTPEnabled(mm.xptpEnabled)
		}
	}

	mm.next = w.Size()
	m.met = mm
	return w
}

// tenantSum adds up one counter over every tenant's statistics view.
func (m *Machine) tenantSum(count func(*stats.Core) uint64) uint64 {
	var n uint64
	for i := range m.Stats.Cores {
		n += count(&m.Stats.Cores[i])
	}
	return n
}

// Metrics returns the attached windowed sampler, or nil.
func (m *Machine) Metrics() *metrics.Windows {
	if m.met == nil {
		return nil
	}
	return m.met.windows
}

// resetMeasured is the warmup→measure statistics reset. An attached
// sampler rebases its counters across it, so the window that spans the
// boundary still counts the events on both sides.
func (m *Machine) resetMeasured() {
	if m.met == nil {
		m.Stats.ResetMeasured()
		return
	}
	m.met.windows.Rebase(m.Stats.ResetMeasured)
}

// closeMetricsWindow ends the current sampling window at the given
// cumulative retired count, annotating the record with the derived
// headline series and the adaptive controller's status bit. Called from
// the run loop only.
func (m *Machine) closeMetricsWindow(retired arch.Instr) {
	mm := m.met
	mm.windows.Close(retired, m.maxRetireCycle, mm.annotate)
	mm.next += mm.windows.Size()
}
