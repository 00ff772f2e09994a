package sim

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/audit"
	"itpsim/internal/metrics"
	"itpsim/internal/tlb"
)

// Beacon is one deterministic state fingerprint, emitted every beacon
// interval of retired instructions. Hash folds the machine's complete
// architectural state at the boundary; Chain folds every beacon emitted
// so far, so two runs are provably identical up to a boundary iff their
// chains match there — the equivalence oracle for resumed, re-ingested,
// and future parallel-shard runs.
type Beacon struct {
	Seq     uint64     `json:"seq"`
	Retired arch.Instr `json:"retired"`
	Cycle   arch.Cycle `json:"cycle"`
	Hash    uint64     `json:"hash"`
	Chain   uint64     `json:"chain"`
}

// String formats the beacon compactly for logs and diagnostics.
func (b Beacon) String() string {
	return fmt.Sprintf("beacon{seq=%d retired=%d hash=%016x chain=%016x}", b.Seq, b.Retired, b.Hash, b.Chain)
}

// beaconLog is the machine's beacon emission state: the boundary
// schedule, the running chain, and an optional sink for callers that
// want the full stream.
type beaconLog struct {
	interval arch.Instr
	next     arch.Instr
	seq      uint64
	chain    arch.StateHash
	sink     func(Beacon)
}

// EnableBeacons arms deterministic state-beacon emission every interval
// retired instructions (counted across threads, like the metrics
// window). interval 0 aligns with the attached metrics window when one
// exists, falling back to metrics.DefaultWindow. Must be called on a
// fresh machine before its first Run.
func (m *Machine) EnableBeacons(interval uint64) {
	iv := arch.Instr(interval)
	if iv == 0 {
		if m.met != nil {
			iv = m.met.windows.Size()
		} else {
			iv = metrics.DefaultWindow
		}
	}
	m.beacons = &beaconLog{interval: iv, next: iv, chain: arch.NewStateHash()}
}

// SetBeaconSink streams every emitted beacon to fn (called from the
// simulation goroutine). Tests use it to capture full streams; leave it
// unset for an allocation-free steady state.
func (m *Machine) SetBeaconSink(fn func(Beacon)) {
	if m.beacons == nil {
		m.EnableBeacons(0)
	}
	m.beacons.sink = fn
}

// BeaconInterval returns the armed emission interval (0 = beacons off).
func (m *Machine) BeaconInterval() uint64 {
	if m.beacons == nil {
		return 0
	}
	return uint64(m.beacons.interval)
}

// BeaconChain returns the running chain fold and how many beacons it
// covers. Two runs with equal (chain, count) retired through identical
// architectural states at every beacon boundary.
func (m *Machine) BeaconChain() (chain uint64, count uint64) {
	if m.beacons == nil {
		return 0, 0
	}
	return m.beacons.chain.Sum(), m.beacons.seq
}

// emitBeacon folds the machine's architectural state into one beacon at
// the current retire boundary. Runs on the simulation goroutine only; it
// allocates nothing (in-place fold).
func (m *Machine) emitBeacon(retired arch.Instr) {
	bl := m.beacons
	h := arch.NewStateHash()
	m.hashState(&h)
	bl.chain.Word(h.Sum())
	bl.chain.Word(uint64(retired))
	b := Beacon{
		Seq:     bl.seq,
		Retired: retired,
		Cycle:   m.maxRetireCycle,
		Hash:    h.Sum(),
		Chain:   bl.chain.Sum(),
	}
	bl.seq++
	bl.next += bl.interval
	if bl.sink != nil {
		bl.sink(b)
	}
}

// hashState folds every architectural structure in a fixed order: per
// core its branch-predictor state and pipeline contexts, then the shared
// STLB MSHRs, the first-level TLBs, the shared STLB, the private L1s,
// the shared caches, the page walker, DRAM timing state, and the
// adaptive controller. Policy-private heuristic tables (SHiP counters,
// CHiRP confidence, ...) are observed through their effects on the
// hashed tag arrays rather than folded directly. For a 1-core machine
// this fold order is exactly the historical serial one, which keeps
// single-core beacon chains bit-identical across the CMP refactor.
func (m *Machine) hashState(h *arch.StateHash) {
	for _, c := range m.cores {
		h.Word(c.bpRNG)
		if c.perceptron != nil {
			c.perceptron.HashState(h)
		}
		for _, t := range c.threads {
			h.Word(uint64(t.id))
			h.Word(t.retired)
			h.Word(t.fetchCycle)
			h.Word(t.fetchReady)
			h.Word(uint64(t.fetchBlock))
			h.Bool(t.refetch)
			h.Word(uint64(t.fetchSub))
			h.Word(uint64(t.fdipCursor))
			h.Word(uint64(t.fdipBlock))
			for _, rt := range t.robRing {
				h.Word(rt)
			}
			h.Word(uint64(t.robPos))
			for _, dt := range t.ftqRing {
				h.Word(dt)
			}
			h.Word(uint64(t.ftqPos))
			h.Word(t.lastRetire)
			h.Word(uint64(t.retireSub))
			h.Word(t.lastLoadDone)
			h.Bool(t.done)
		}
	}
	for i := range m.stlbMSHRs {
		e := &m.stlbMSHRs[i]
		h.Bool(e.valid)
		h.Word(e.vpn)
		h.Word(uint64(e.thread))
		h.Word(uint64(e.class))
		h.Word(e.readyAt)
		h.Word(e.ppn)
		h.Word(uint64(e.bits))
	}
	for _, c := range m.cores {
		c.itlb.HashState(h)
		c.dtlb.HashState(h)
	}
	for _, t := range m.stlbHalves() {
		t.HashState(h)
	}
	for _, c := range m.cores {
		c.l1i.HashState(h)
		c.l1d.HashState(h)
	}
	m.l2c.HashState(h)
	m.llc.HashState(h)
	m.walker.HashState(h)
	m.mem.HashState(h)
	if m.ctrl != nil {
		m.ctrl.HashState(h)
	}
}

// EnableAudit arms periodic structural audits every interval retired
// instructions: each registered component checks its own invariants (LRU
// stack permutations, MSHR leaks, ring bounds, TLB↔page-table coherence,
// protection-bit consistency) and a violation ends the run with a
// structured *audit.Error instead of producing silently corrupt
// statistics. Must be called on a fresh machine before its first Run.
func (m *Machine) EnableAudit(interval uint64) {
	if interval == 0 {
		interval = defaultAuditInterval
	}
	a := &audit.Auditor{}
	a.Register("machine", machineCheck{m})
	for _, c := range m.cores {
		a.Register(m.coreComponent(c.id, "itlb"), c.itlb)
		a.Register(m.coreComponent(c.id, "dtlb"), c.dtlb)
	}
	for _, t := range m.stlbHalves() {
		a.Register("stlb", t)
	}
	for _, c := range m.cores {
		a.Register(m.coreComponent(c.id, "l1i"), c.l1i)
		a.Register(m.coreComponent(c.id, "l1d"), c.l1d)
	}
	a.Register("l2c", m.l2c)
	a.Register("llc", m.llc)
	a.Register("ptw", m.walker)
	if m.ctrl != nil {
		a.Register("xptp-controller", m.ctrl)
	}
	m.auditor = a
	m.auditEvery = arch.Instr(interval)
	m.auditNext = m.auditEvery
}

// defaultAuditInterval trades audit cost (a full structural scan) against
// detection latency: one pass per 64K retired instructions.
const defaultAuditInterval = 1 << 16

// AuditNow runs one audit pass immediately and returns its verdict. It
// reads every structure without synchronisation, so it must only be
// called when no run is in flight — from the simulation goroutine, or
// post-mortem after a watchdog kill has stopped the run.
func (m *Machine) AuditNow() error {
	if m.auditor == nil {
		m.EnableAudit(0)
	}
	return m.auditor.Run(m.retiredLocal, uint64(m.maxRetireCycle))
}

// runAudit executes one periodic in-sim audit pass at a retire boundary,
// publishing the verdict for Snapshot readers. A violation latches the
// structured error and interrupts the run at the next boundary.
func (m *Machine) runAudit(retired arch.Instr) {
	m.auditNext += m.auditEvery
	err := m.auditor.Run(uint64(retired), uint64(m.maxRetireCycle))
	var verdict string
	if err != nil {
		verdict = err.Error()
		if m.auditErr == nil {
			m.auditErr = err
		}
		m.interrupted.Store(true)
	} else {
		verdict = fmt.Sprintf("audit: clean at retired=%d", retired)
	}
	m.auditVerdict.Store(&verdict)
}

// machineCheck audits the machine's own structures: the per-thread
// pipeline rings, the lookahead ring, the STLB MSHR file, and TLB↔page-
// table coherence (every cached translation must agree with the page
// table that produced it).
type machineCheck struct{ m *Machine }

// AuditState implements audit.Checkable.
func (mc machineCheck) AuditState(r *audit.Report) {
	m := mc.m
	for _, t := range m.threads {
		if t.robPos < 0 || t.robPos >= len(t.robRing) {
			r.Violatef("ring-bounds", "t%d: robPos %d outside ROB ring of %d", t.id, t.robPos, len(t.robRing))
		}
		if t.ftqPos < 0 || t.ftqPos >= len(t.ftqRing) {
			r.Violatef("ring-bounds", "t%d: ftqPos %d outside FTQ ring of %d", t.id, t.ftqPos, len(t.ftqRing))
		}
		if t.fdipCursor < 0 || t.fdipCursor > t.scanBudget {
			r.Violatef("ring-bounds", "t%d: fdipCursor %d outside scan budget %d", t.id, t.fdipCursor, t.scanBudget)
		}
		la := t.la
		if la.head < 0 || la.head >= len(la.buf) || la.head != la.head&la.mask {
			r.Violatef("ring-bounds", "t%d: lookahead head %d outside ring of %d", t.id, la.head, len(la.buf))
		}
		if la.size < 0 || la.size > len(la.buf) {
			r.Violatef("ring-bounds", "t%d: lookahead size %d outside capacity %d", t.id, la.size, len(la.buf))
		}
		if len(la.buf) != la.mask+1 || len(la.buf)&la.mask != 0 {
			r.Violatef("ring-bounds", "t%d: lookahead capacity %d does not match mask %#x", t.id, len(la.buf), la.mask)
		}
	}
	for i := range m.stlbMSHRs {
		e := &m.stlbMSHRs[i]
		if !e.valid || e.readyAt <= r.Now {
			continue
		}
		for j := i + 1; j < len(m.stlbMSHRs); j++ {
			o := &m.stlbMSHRs[j]
			if o.valid && o.readyAt > r.Now && o.vpn == e.vpn && o.thread == e.thread {
				r.Violatef("mshr-leak", "stlb mshrs %d and %d both walk vpn %#x in flight", i, j, e.vpn)
			}
		}
	}
	m.visitTLBs(func(name string, e *tlb.Entry) {
		tr := m.pts[e.Thread].Translate(arch.Addr(e.VPN) << e.PageBits)
		if tr.PPN != e.PPN || tr.PageBits != e.PageBits {
			r.Violatef("pagetable-coherence",
				"%s entry vpn=%#x/%d t%d: cached ppn %#x, page table says ppn %#x size %d",
				name, e.VPN, e.PageBits, e.Thread, e.PPN, tr.PPN, tr.PageBits)
		}
	})
}

// coreComponent names a per-core component for audit registration and
// diagnostics: the historical bare name on a single-core machine, a
// core-prefixed one on a CMP. Cold path only (registration, audits).
func (m *Machine) coreComponent(core uint8, base string) string {
	if len(m.cores) == 1 {
		return base
	}
	return fmt.Sprintf("core%d.%s", core, base)
}

// visitTLBs walks every valid entry of every TLB level, tagged with the
// level name, in a fixed order (cores ascending, then the shared STLB).
func (m *Machine) visitTLBs(fn func(name string, e *tlb.Entry)) {
	for _, c := range m.cores {
		in, dn := m.coreComponent(c.id, "itlb"), m.coreComponent(c.id, "dtlb")
		c.itlb.VisitEntries(func(e *tlb.Entry) { fn(in, e) })
		c.dtlb.VisitEntries(func(e *tlb.Entry) { fn(dn, e) })
	}
	for _, t := range m.stlbHalves() {
		t.VisitEntries(func(e *tlb.Entry) { fn("stlb", e) })
	}
}
