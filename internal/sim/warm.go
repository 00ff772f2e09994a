package sim

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/workload"
)

// WarmFunctional consumes n instructions from s at generator speed,
// updating every state-holding structure the instructions touch — TLBs,
// caches, page tables and walker PSCs, DRAM timing, branch predictor,
// and the adaptive controller — without driving the OoO pipeline. It is
// the cheap prefix of a split warmup: a representative-sampling or
// sharded run replays most of its warmup functionally and only the
// suffix in detail, cutting the dominant replicated-warmup cost.
//
// The functional clock advances one cycle per instruction; the detailed
// run that follows starts its threads at that cycle, so hierarchy timing
// state (MSHR readyAt, bank busy times) warmed here stays causally
// ahead of nothing. Retired-instruction accounting advances the same
// counter the detailed step path uses, so windows, beacons, and audits
// keep serial coordinates; their schedules are resynchronised to the
// next boundary past the skip (no window or beacon is emitted for the
// functionally warmed span). Statistics recorded during the warmup are
// cleared by the detailed warmup's ResetMeasured, so callers must follow
// WarmFunctional with a RunWarmup whose warmup is > 0.
//
// Single-core machines only (sharded and sampled runs split one
// stream), and only before the machine's first detailed run.
func (m *Machine) WarmFunctional(s workload.Stream, n uint64) error {
	if len(m.cores) > 1 {
		return fmt.Errorf("sim: functional warmup needs a single-core machine, this one has %d cores", len(m.cores))
	}
	// The functional clock and the retire counter advance in lockstep
	// here; a detailed run advances retires without the functional clock,
	// so any divergence means this machine has already run in detail.
	if m.threads != nil || m.retiredLocal != m.funcClock {
		return fmt.Errorf("sim: functional warmup must run before the detailed run, not after or during it")
	}
	m.interrupted.Store(false)
	c := m.cores[0]
	m.warmHasBlock = false
	// One interrupt check and progress publish per segment pulled.
	interrupted := false
	done := workload.Pull(s, n, func(seg []workload.Instr) bool {
		for i := range seg {
			m.warmStep(c, &seg[i])
		}
		m.retiredTotal.Store(m.retiredLocal)
		interrupted = m.interrupted.Load()
		return !interrupted
	})
	m.finishFunctionalWarmup()
	switch {
	case done == n:
		return nil
	case interrupted:
		return fmt.Errorf("sim: functional warmup at %d/%d: %w", done, n, ErrInterrupted)
	}
	if es, ok := s.(errStream); ok {
		if err := es.Err(); err != nil {
			return fmt.Errorf("sim: functional warmup stream failed at %d/%d: %w", done, n, err)
		}
	}
	return fmt.Errorf("sim: stream ended %d instructions into a %d-instruction functional warmup", done, n)
}

// warmStep replays one instruction functionally: a block-change ifetch
// (the detailed front end fetches once per block too), the data accesses,
// branch-predictor training, and the controller's retire tick. The
// predictor-RNG step on non-perceptron configs keeps the RNG advanced by
// the same branch count a detailed prefix would have consumed.
func (m *Machine) warmStep(c *coreState, in *workload.Instr) {
	now := m.funcClock
	if blk := arch.BlockAddr(in.PC); blk != m.warmBlock || !m.warmHasBlock {
		m.warmHasBlock = true
		m.warmBlock = blk
		m.ifetch(c, now, in.PC, 0)
	}
	if in.LoadAddr != 0 {
		m.dataAccess(c, now, in.LoadAddr, in.PC, false, 0)
	}
	if in.StoreAddr != 0 {
		m.dataAccess(c, now, in.StoreAddr, in.PC, true, 0)
	}
	if in.IsBranch {
		if in.Taken {
			for _, ch := range m.chirps {
				ch.Observe(0, uint64(in.PC))
			}
		}
		if c.perceptron != nil {
			c.perceptron.Update(in.PC, in.Taken)
		} else {
			m.predictBranch(c)
		}
	}
	if m.ctrl != nil {
		m.ctrl.OnRetire(1)
	}
	m.funcClock = now + 1
	m.retiredLocal++
}

// finishFunctionalWarmup resynchronises the boundary schedules to the
// position the functional skip reached: windows restart from a counter
// snapshot at the skipped-to coordinate, and the window, beacon,
// and audit schedules move to the next boundary strictly past it, so the
// detailed run's emissions land at the same serial coordinates a fully
// detailed run would have used.
func (m *Machine) finishFunctionalWarmup() {
	if c := arch.Cycle(m.funcClock); c > m.maxRetireCycle {
		m.maxRetireCycle = c
	}
	r := arch.Instr(m.retiredLocal)
	if m.met != nil {
		m.met.windows.SkipTo(r, m.maxRetireCycle, m.counters())
		m.met.next = nextBoundary(r, m.met.windows.Size())
	}
	if m.beacons != nil {
		m.beacons.next = nextBoundary(r, m.beacons.interval)
	}
	if m.auditor != nil {
		m.auditNext = nextBoundary(r, m.auditEvery)
	}
	m.retiredTotal.Store(m.retiredLocal)
	m.publishDiag()
}

// nextBoundary returns the smallest multiple of iv strictly greater
// than r.
func nextBoundary(r, iv arch.Instr) arch.Instr {
	return (r/iv + 1) * iv
}
