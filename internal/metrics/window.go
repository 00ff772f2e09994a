// Package metrics is the simulator's windowed observability layer: a
// time-series sampler keyed to retired instructions (the paper's
// 1000-instruction adaptive window, Section 4.3.1) that turns snapshots
// of the simulator's own event counters into per-window deltas, and a
// JSONL exporter that makes every emitted series self-describing via a
// run manifest. The sampler counts nothing itself: the machine hands it a
// snapshot of counts it already keeps, so every event is counted once.
package metrics

import (
	"expvar"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"itpsim/internal/arch"
)

// DefaultWindow is the windowed sampler's default size in retired
// instructions — the paper's 1000-instruction adaptive window.
const DefaultWindow = 1000

// Counters is one snapshot of the machine's event counters, or the
// per-window difference of two. The fields are declared in JSON-name
// order, so a record encodes exactly like a sorted name→count map.
type Counters struct {
	BranchMispredict    uint64 `json:"branch.mispredict"`
	L1IDemandMiss       uint64 `json:"l1i.demand_miss"`
	L2CDemandMiss       uint64 `json:"l2c.demand_miss"`
	L2CEvictDataPTE     uint64 `json:"l2c.evict.data_pte"`
	L2CEvictPTE         uint64 `json:"l2c.evict.pte"`
	PTWWalkData         uint64 `json:"ptw.walk.data"`
	PTWWalkInstr        uint64 `json:"ptw.walk.instr"`
	STLBDemandMissData  uint64 `json:"stlb.demand_miss.data"`
	STLBDemandMissInstr uint64 `json:"stlb.demand_miss.instr"`
}

// sub returns c - o, field by field.
func (c Counters) sub(o Counters) Counters {
	return Counters{
		BranchMispredict:    c.BranchMispredict - o.BranchMispredict,
		L1IDemandMiss:       c.L1IDemandMiss - o.L1IDemandMiss,
		L2CDemandMiss:       c.L2CDemandMiss - o.L2CDemandMiss,
		L2CEvictDataPTE:     c.L2CEvictDataPTE - o.L2CEvictDataPTE,
		L2CEvictPTE:         c.L2CEvictPTE - o.L2CEvictPTE,
		PTWWalkData:         c.PTWWalkData - o.PTWWalkData,
		PTWWalkInstr:        c.PTWWalkInstr - o.PTWWalkInstr,
		STLBDemandMissData:  c.STLBDemandMissData - o.STLBDemandMissData,
		STLBDemandMissInstr: c.STLBDemandMissInstr - o.STLBDemandMissInstr,
	}
}

// WindowRecord is one closed instruction window of the time series, as
// Windows.Close builds it.
type WindowRecord struct {
	// Window is the zero-based window index.
	Window uint64 `json:"window"`
	// Retired is the cumulative retired-instruction count at close. The
	// arch.Instr/arch.Cycle unit types marshal as plain JSON numbers, so
	// the export format is unchanged.
	Retired arch.Instr `json:"retired"`
	// Instr is the number of instructions retired inside this window.
	Instr arch.Instr `json:"instr"`
	// Cycles is the number of cycles elapsed inside this window.
	Cycles arch.Cycle `json:"cycles"`
	// IPC is Instr/Cycles for this window alone.
	IPC float64 `json:"ipc"`
	// Counters holds the per-window delta of every counter.
	Counters Counters `json:"counters"`

	// STLB misses per kilo-instruction by translation class, the series
	// the paper's adaptive mechanism is driven by.
	STLBMPKIInstr float64 `json:"stlb_mpki_instr"`
	STLBMPKIData  float64 `json:"stlb_mpki_data"`
	// XPTPEnabled is the adaptive controller's status bit at the window's
	// close; nil when no controller is attached. The pointer is the
	// JSON-facing presence flag; set it through SetXPTPEnabled, which
	// points at shared immutable values instead of boxing a bool per
	// window.
	XPTPEnabled *bool `json:"xptp_enabled,omitempty"`
}

// xptpVals backs XPTPEnabled pointers; the values are never written, so
// every window record with the same status bit shares one pointer.
var xptpVals = [2]bool{false, true}

// SetXPTPEnabled records the adaptive controller's status bit without
// allocating.
func (r *WindowRecord) SetXPTPEnabled(enabled bool) {
	if enabled {
		r.XPTPEnabled = &xptpVals[1]
	} else {
		r.XPTPEnabled = &xptpVals[0]
	}
}

// ringSize is how many closed windows a sampler keeps in memory: enough
// for /debug/vars (16) and a stall snapshot (5). A caller that needs a
// whole series collects it through the sink.
const ringSize = 64

// Windows turns counter snapshots into a WindowRecord series, one record
// every Size retired instructions. Closing is the cold path (once per
// window). The open window's starting snapshot belongs to the goroutine
// that drives the run (Close, SkipTo, Rebase); the closed series is
// mutex-protected so a supervisor thread can read recent history
// race-free while the simulation runs. The per-retire boundary check
// stays on the caller's side.
type Windows struct {
	size arch.Instr
	// last is the snapshot the open window started from.
	last Counters

	mu sync.Mutex
	// ring holds the most recent closed windows; closed counts every
	// record ever stored, so the next one goes to ring[closed%ringSize]
	// and overwrites the oldest in place once the ring is full.
	ring   [ringSize]WindowRecord
	closed int
	sink   func(*WindowRecord)

	index       uint64
	lastRetired arch.Instr
	lastCycles  arch.Cycle
}

// NewWindows returns a sampler with the given window size in retired
// instructions (0 selects DefaultWindow) whose first window starts from
// the snapshot start.
func NewWindows(size arch.Instr, start Counters) *Windows {
	if size == 0 {
		size = DefaultWindow
	}
	return &Windows{size: size, last: start}
}

// Size returns the window size in retired instructions.
func (w *Windows) Size() arch.Instr { return w.size }

// Rebase carries the open window across a reset of the counters' sources
// — the warmup→measure statistics reset — given the snapshots just before
// and just after it: the window's starting snapshot moves by however
// much each counter changed across the reset, so the window's deltas
// still count every event on both sides of it.
func (w *Windows) Rebase(before, after Counters) {
	w.last = after.sub(before.sub(w.last))
}

// SetSink streams every closed window to fn (e.g. a JSONL writer) — the
// way to collect a series longer than the retained ring.
func (w *Windows) SetSink(fn func(*WindowRecord)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = fn
}

// Close ends the current window at the given cumulative retired count and
// cycle: the counter deltas are now minus the window's starting snapshot,
// and xptp is the adaptive controller's status bit at close, or nil
// without a controller. The sink, when set, gets the stored record and
// must neither change it nor retain it past the call: the ring slot
// carries a later window once the ring wraps.
//
// The sink runs after w.mu is released: sinks do I/O (the JSONL
// exporter writes a file) and may legitimately re-enter the Windows
// (Recent, Closed) for context, so streaming under the lock would hold
// every concurrent stall-diagnostic reader hostage — or deadlock.
// Windows are closed by the single run-loop goroutine, so the sink
// still sees records in order, and no Close rewrites the slot while
// the sink reads it.
func (w *Windows) Close(retired arch.Instr, cycles arch.Cycle, now Counters, xptp *bool) {
	delta := now.sub(w.last)
	w.last = now
	w.mu.Lock()
	rec := &w.ring[w.closed%ringSize]
	w.closed++
	*rec = WindowRecord{
		Window:   w.index,
		Retired:  retired,
		Instr:    retired - w.lastRetired,
		Cycles:   cycles - w.lastCycles,
		Counters: delta,
	}
	if rec.Cycles > 0 {
		rec.IPC = float64(rec.Instr) / float64(rec.Cycles)
	}
	if rec.Instr > 0 {
		k := 1000 / float64(rec.Instr)
		rec.STLBMPKIInstr = float64(delta.STLBDemandMissInstr) * k
		rec.STLBMPKIData = float64(delta.STLBDemandMissData) * k
	}
	if xptp != nil {
		rec.SetXPTPEnabled(*xptp)
	}
	w.index++
	w.lastRetired = retired
	w.lastCycles = cycles
	sink := w.sink
	w.mu.Unlock()
	if sink != nil {
		sink(rec)
	}
}

// SkipTo resynchronises the sampler after a functional fast-forward: the
// machine consumed instructions up to the cumulative retired count
// without closing windows, so the next window must start from this
// position — window index rebased to the serial coordinate, starting
// snapshot now — instead of reporting the whole skipped span as one
// giant window. No record is emitted for the skipped region.
func (w *Windows) SkipTo(retired arch.Instr, cycles arch.Cycle, now Counters) {
	w.last = now
	w.mu.Lock()
	defer w.mu.Unlock()
	w.index = uint64(retired / w.size)
	w.lastRetired = retired
	w.lastCycles = cycles
}

// Records returns a copy of the retained window series: the most recent
// closed windows, at most 64, oldest first.
func (w *Windows) Records() []WindowRecord { return w.Recent(ringSize) }

// Closed returns how many windows have been closed so far, counted in
// serial coordinates: after a SkipTo it includes the skipped windows.
func (w *Windows) Closed() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.index
}

// Recent returns up to n of the most recently closed windows (oldest
// first). Safe to call from any goroutine while the run is in flight —
// this is what stall-diagnostic snapshots use.
func (w *Windows) Recent(n int) []WindowRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	n = min(n, w.closed, ringSize)
	out := make([]WindowRecord, n)
	for i := range out {
		out[i] = w.ring[(w.closed-n+i)%ringSize]
	}
	return out
}

// RecentString formats the last n windows compactly for diagnostic dumps.
func (w *Windows) RecentString(n int) string {
	recent := w.Recent(n)
	if len(recent) == 0 {
		return "(no windows closed yet)"
	}
	var b strings.Builder
	for i, rec := range recent {
		if i > 0 {
			b.WriteString(" | ")
		}
		fmt.Fprintf(&b, "w%d{ipc=%.3f stlb-mpki=%.2f/%.2f", rec.Window, rec.IPC, rec.STLBMPKIInstr, rec.STLBMPKIData)
		if rec.XPTPEnabled != nil {
			fmt.Fprintf(&b, " xptp=%v", *rec.XPTPEnabled)
		}
		b.WriteByte('}')
	}
	return b.String()
}

// expvarRecent is how many recent windows the /debug/vars entry shows.
const expvarRecent = 16

// published maps each expvar name PublishExpvar has used to the sampler
// its /debug/vars entry shows.
var published sync.Map // string → *atomic.Pointer[Windows]

// PublishExpvar exposes the most recent closed windows as an expvar
// variable, so a long campaign can be inspected over -pprof's debug
// endpoint (/debug/vars); each read takes the series under its mutex.
// Publishing a name again shows the newest sampler under it — a retried
// run's, not its failed attempt's — rather than the expvar panic.
func (w *Windows) PublishExpvar(name string) {
	v, loaded := published.LoadOrStore(name, new(atomic.Pointer[Windows]))
	cur := v.(*atomic.Pointer[Windows])
	cur.Store(w)
	if !loaded {
		expvar.Publish(name, expvar.Func(func() any { return cur.Load().Recent(expvarRecent) }))
	}
}
