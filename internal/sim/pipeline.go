package sim

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/pool"
	"itpsim/internal/workload"
)

// lookahead buffers upcoming instructions so the decoupled front-end can
// prefetch future fetch blocks (FDIP) before fetch reaches them. The
// buffer is a power-of-two ring (masked indexing) refilled in contiguous
// bulk segments through workload.NextBatcher when the source supports it,
// so steady-state refills are memmoves instead of per-instruction
// interface calls.
type lookahead struct {
	s     workload.Stream
	bulk  workload.NextBatcher // non-nil when s has a native bulk path
	buf   []workload.Instr
	mask  int
	head  int
	size  int
	ended bool
}

// rings recycles the lookahead rings RunWarmup returns, keyed by
// capacity.
var rings pool.Keyed[*lookahead]

// newLookahead returns an empty ring over s of at least capacity slots
// (at least 64, a power of two). A recycled ring is cleared first.
func newLookahead(s workload.Stream, capacity int) *lookahead {
	cap2 := 64
	for cap2 < capacity {
		cap2 <<= 1
	}
	l, ok := rings.Get(cap2)
	if ok {
		clear(l.buf)
		*l = lookahead{buf: l.buf}
	} else {
		l = &lookahead{buf: make([]workload.Instr, cap2)}
	}
	l.s, l.mask = s, cap2-1
	l.bulk, _ = s.(workload.NextBatcher)
	return l
}

// release drops the ring's stream and returns the ring to the pool; the
// instructions still buffered are discarded. The ring must not be used
// afterwards.
func (l *lookahead) release() {
	l.s, l.bulk = nil, nil
	rings.Put(len(l.buf), l)
}

// fill tops the buffer up to capacity, one contiguous free segment at a
// time (at most two segments when the free space wraps).
func (l *lookahead) fill() {
	for !l.ended && l.size < len(l.buf) {
		wpos := (l.head + l.size) & l.mask
		n := len(l.buf) - wpos
		if wpos < l.head {
			n = l.head - wpos
		}
		seg := l.buf[wpos : wpos+n]
		if l.bulk != nil {
			got := l.bulk.NextBatch(seg)
			if got == 0 {
				l.ended = true
				return
			}
			l.size += got
		} else {
			got := workload.FillBatch(l.s, seg)
			l.size += got
			if got < len(seg) {
				l.ended = true
				return
			}
		}
	}
}

// peek returns the i-th upcoming instruction (0 = next), or nil.
func (l *lookahead) peek(i int) *workload.Instr {
	if i >= l.size {
		l.fill()
		if i >= l.size {
			return nil
		}
	}
	return &l.buf[(l.head+i)&l.mask]
}

// pop consumes the next instruction.
func (l *lookahead) pop(in *workload.Instr) bool {
	if l.size == 0 {
		l.fill()
		if l.size == 0 {
			return false
		}
	}
	*in = l.buf[l.head]
	l.head = (l.head + 1) & l.mask
	l.size--
	return true
}

// threadCtx is the per-hardware-thread pipeline state.
type threadCtx struct {
	id uint8
	// core is the core this thread is scheduled on: its private L1s,
	// first-level TLBs, and branch predictor serve this thread's
	// accesses (shared with at most one SMT sibling).
	core *coreState
	la   *lookahead

	budget         uint64
	retired        uint64
	retiredAtReset uint64
	// lastRetireAtReset snapshots lastRetire at the warmup→measure
	// boundary so the tenant's measured cycle span is its own retire
	// progress, not the machine-wide baseline.
	lastRetireAtReset uint64
	done              bool

	// Front end.
	fetchCycle uint64 // when the fetch unit may fetch the next instruction
	fetchStep  uint64 // cycles consumed per fetch group (2 under SMT)
	fetchSub   int    // instructions fetched in the current group
	fetchBlock arch.Addr
	refetch    bool   // force an ifetch even if the block address matches
	fetchReady uint64 // when the current block's fetch completes
	fdipCursor int    // lookahead index the FDIP scan has reached
	fdipBlock  arch.Addr
	scanBudget int // max lookahead instructions one FDIP scan may walk

	// Back end.
	robRing []uint64 // retire times of the last ROBSize instructions
	robPos  int
	ftqRing []uint64 // dispatch times for FTQ backpressure
	ftqPos  int
	// times is the pooled array robRing and ftqRing slice, in that
	// order; release hands it back.
	times *[]uint64

	lastRetire   uint64
	retireSub    int
	lastLoadDone uint64
}

// blockInstrs is the most instructions one fetch block can hold (4-byte
// instructions), which bounds how many lookahead slots an FDIP scan of
// FDIPDistance blocks can consume.
const blockInstrs = arch.BlockSize / 4

func newThreadCtx(c *coreState, id uint8, s workload.Stream, cfg *config.SystemConfig, fetchStep uint64, budget uint64, start uint64) *threadCtx {
	// The FTQ bounds how far fetch may run ahead of dispatch; beyond it
	// the decoupled front-end can no longer hide instruction-side misses.
	ftqCap := cfg.FTQDepth
	// FDIP scans at most FDIPDistance blocks; a block holds at most
	// blockInstrs instructions, so the scan needs at most this many
	// lookahead slots.
	scanBudget := cfg.FDIPDistance * blockInstrs
	times := takeTimes(cfg.ROBSize + ftqCap)
	t := &threadCtx{
		id:   id,
		core: c,
		// refetch starts true: the first instruction must fetch its block
		// even when the trace begins in block 0.
		refetch:    true,
		la:         newLookahead(s, scanBudget),
		budget:     budget,
		fetchStep:  fetchStep,
		scanBudget: scanBudget,
		robRing:    (*times)[:cfg.ROBSize:cfg.ROBSize],
		ftqRing:    (*times)[cfg.ROBSize:],
		times:      times,
		// start is the cycle the thread begins at: 0 on a fresh machine,
		// the functional clock after WarmFunctional, so detailed timing
		// never runs behind hierarchy state warmed at a later cycle.
		fetchCycle:        start,
		lastRetire:        start,
		lastRetireAtReset: start,
		lastLoadDone:      start,
	}
	if len(t.la.buf) < scanBudget {
		panic(fmt.Sprintf("sim: lookahead capacity %d < FDIP scan budget %d", len(t.la.buf), scanBudget))
	}
	return t
}

// timeRings recycles the threads' ROB and FTQ rings between runs: one
// array per thread holds both, keyed by its length.
var timeRings pool.Keyed[*[]uint64]

// takeTimes returns n zeroed cycle stamps, in an array a released thread
// left when one of length n is in the pool. Zero is the rings' initial
// state, and the beacon fold reads them.
func takeTimes(n int) *[]uint64 {
	p, ok := timeRings.Get(n)
	if !ok {
		s := make([]uint64, n)
		return &s
	}
	clear(*p)
	return p
}

// release returns the thread's lookahead ring and its ROB and FTQ rings
// to their pools. The thread must not step afterwards.
func (t *threadCtx) release() {
	t.la.release()
	timeRings.Put(len(*t.times), t.times)
	t.la, t.times, t.robRing, t.ftqRing = nil, nil, nil, nil
}

// pipelineFillLatency is the constant decode/rename depth between fetch
// and dispatch.
const pipelineFillLatency = 8

// step simulates one instruction of thread t end to end.
func (m *Machine) step(t *threadCtx) {
	c := t.core
	var in workload.Instr
	if t.retired >= t.budget || !t.la.pop(&in) {
		t.done = true
		return
	}
	if t.fdipCursor > 0 {
		t.fdipCursor--
	}

	// ---- Front end ----
	// FTQ backpressure: fetch may run at most ftqCap instructions ahead
	// of dispatch.
	if bp := t.ftqRing[t.ftqPos]; t.fetchCycle < bp {
		t.fetchCycle = bp
	}

	blk := arch.BlockAddr(in.PC)
	if blk != t.fetchBlock || t.refetch {
		t.refetch = false
		t.fetchBlock = blk
		done := m.ifetch(c, t.fetchCycle, in.PC, t.id)
		if done > t.fetchReady {
			t.fetchReady = done
		}
		m.fdipScan(t)
	}
	fetchDone := t.fetchCycle
	if t.fetchReady > fetchDone {
		fetchDone = t.fetchReady
		t.fetchCycle = t.fetchReady // in-order front end
	}
	// Fetch bandwidth.
	t.fetchSub++
	if t.fetchSub >= m.cfg.FetchWidth {
		t.fetchSub = 0
		t.fetchCycle += t.fetchStep
	}

	// ---- Dispatch (ROB occupancy) ----
	dispatch := fetchDone + pipelineFillLatency
	if oldest := t.robRing[t.robPos]; dispatch < oldest {
		dispatch = oldest // ROB full: wait for the oldest to retire
		m.backBound++
	} else {
		m.frontBound++
	}
	t.ftqRing[t.ftqPos] = dispatch
	if t.ftqPos++; t.ftqPos == len(t.ftqRing) {
		t.ftqPos = 0
	}

	// ---- Execute / memory ----
	execDone := dispatch + m.cfg.ExecLatency
	if in.LoadAddr != 0 {
		start := dispatch
		if in.DepLoad && t.lastLoadDone > start {
			// Pointer chase: the address comes from the previous load.
			start = t.lastLoadDone
		}
		loadDone := m.dataAccess(c, start, in.LoadAddr, in.PC, false, t.id)
		t.lastLoadDone = loadDone
		if loadDone > execDone {
			execDone = loadDone
		}
	}
	if in.StoreAddr != 0 {
		// Stores retire from the store buffer; the access updates cache
		// state but does not extend the critical path.
		m.dataAccess(c, dispatch, in.StoreAddr, in.PC, true, t.id)
	}

	if in.IsBranch {
		if in.Taken {
			for _, ch := range m.chirps {
				ch.Observe(t.id, uint64(in.PC))
			}
		}
		predictedRight := false
		if c.perceptron != nil {
			predictedRight = c.perceptron.Predict(in.PC) == in.Taken
			c.perceptron.Update(in.PC, in.Taken)
		} else {
			predictedRight = m.predictBranch(c)
		}
		if !predictedRight {
			m.branchMispredicts++
			// Mispredict: the front end redirects after resolution and
			// must refetch the target block, wherever it lives (an
			// address sentinel would miss targets in block 0).
			redirect := execDone + m.cfg.MispredictPen
			if t.fetchCycle < redirect {
				t.fetchCycle = redirect
			}
			t.refetch = true
		}
	}

	// ---- Retire (in order, bounded width) ----
	rt := execDone
	if rt < t.lastRetire {
		rt = t.lastRetire
	}
	if rt == t.lastRetire {
		t.retireSub++
		if t.retireSub >= m.cfg.RetireWidth {
			rt++
			t.retireSub = 0
		}
	} else {
		t.retireSub = 1
	}
	t.lastRetire = rt

	t.robRing[t.robPos] = rt
	if t.robPos++; t.robPos == len(t.robRing) {
		t.robPos = 0
	}
	if c := arch.Cycle(rt); c > m.maxRetireCycle {
		m.maxRetireCycle = c
	}

	t.retired++
	m.retiredLocal++
	rtot := m.retiredLocal
	// Publish progress for the watchdog in batches: a per-retire atomic
	// store costs measurable throughput, and the watchdog samples at
	// millisecond granularity, so sub-millisecond staleness is invisible.
	if rtot&retirePublishMask == 0 {
		m.retiredTotal.Store(rtot)
		if rtot&diagPublishMask == 0 {
			m.publishDiag()
		}
	}
	if m.ctrl != nil {
		m.ctrl.OnRetire(1)
	}
	// Close the metrics window after the controller has judged its own
	// window, so the record carries the decision that this boundary
	// produced (the windows are aligned when the sizes match).
	if m.met != nil && arch.Instr(rtot) >= m.met.next {
		m.closeMetricsWindow(arch.Instr(rtot))
	}
	// Beacon emission follows the window close so the fingerprint covers
	// the state the window's decision left behind (aligned intervals see
	// both fire at the same boundary).
	if m.beacons != nil && arch.Instr(rtot) >= m.beacons.next {
		m.emitBeacon(arch.Instr(rtot))
	}
	if m.auditor != nil && arch.Instr(rtot) >= m.auditNext {
		m.runAudit(arch.Instr(rtot))
	}
	if t.retired >= t.budget {
		t.done = true
	}
}

// retirePublishMask batches retiredTotal stores (must divide the diag
// publish interval so the nested boundary check still fires).
const retirePublishMask = 1<<10 - 1

// fdipScan advances the FDIP cursor through the lookahead buffer,
// prefetching upcoming fetch blocks whose translations the ITLB already
// holds. The scan stops at the configured block distance — bounded by
// scanBudget lookahead instructions, the most FDIPDistance blocks can
// hold — or at the first block whose translation is unknown; the front
// end cannot prefetch past a pending instruction translation.
func (m *Machine) fdipScan(t *threadCtx) {
	if !m.cfg.L1IFDIP {
		return
	}
	blocks := 0
	for i := t.fdipCursor; blocks < m.cfg.FDIPDistance && i < t.scanBudget; i++ {
		in := t.la.peek(i)
		if in == nil {
			break
		}
		blk := arch.BlockAddr(in.PC)
		if blk == t.fdipBlock {
			t.fdipCursor = i + 1
			continue
		}
		if !m.fdipPrefetch(t.core, t.fetchCycle, in.PC, t.id) {
			break // unknown translation: FDIP stalls here
		}
		t.fdipBlock = blk
		t.fdipCursor = i + 1
		blocks++
	}
}
