// Package metrics is the simulator's windowed observability layer: a
// time-series sampler keyed to retired instructions (the paper's
// 1000-instruction adaptive window, Section 4.3.1) that turns the
// simulator's own event counters into per-window deltas, and a JSONL
// exporter that makes every emitted series self-describing via a run
// manifest. The sampler counts nothing itself: each tracked counter is a
// reader of a count the machine already keeps, so every event is counted
// once.
package metrics

import (
	"expvar"
	"fmt"
	"strings"
	"sync"

	"itpsim/internal/arch"
)

// DefaultWindow is the windowed sampler's default size in retired
// instructions — the paper's 1000-instruction adaptive window.
const DefaultWindow = 1000

// WindowRecord is one closed instruction window of the time series. The
// generic part (retired/cycles/IPC plus tracked-counter deltas) is filled
// by Windows.Close; the simulator's annotate callback adds the derived
// headline series the paper's adaptive mechanism is driven by.
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
	// Counters holds the per-window delta of every tracked counter.
	Counters map[string]uint64 `json:"counters,omitempty"`

	// Derived headline series (set by the simulator's annotate hook).
	STLBMPKIInstr float64 `json:"stlb_mpki_instr"`
	STLBMPKIData  float64 `json:"stlb_mpki_data"`
	// XPTPEnabled mirrors the adaptive controller's status bit for the
	// window that just closed; nil when no controller is attached. The
	// pointer is the JSON-facing presence flag; internally the state is a
	// value+valid pair — set it through SetXPTPEnabled, which points at
	// shared immutable values instead of boxing a bool per window.
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

// trackedCounter pairs a counter reader with its last-sampled value and
// the delta of the window being closed.
type trackedCounter struct {
	name        string
	read        func() uint64
	last, delta uint64
}

// Windows samples tracked counters every Size retired instructions and
// turns the deltas into a WindowRecord series. Closing is the cold path
// (once per window). The tracked counters and their baselines belong to
// the goroutine that drives the run (Track, Close, SkipTo, Rebase); the
// closed series is mutex-protected so a supervisor thread can read recent
// history race-free while the simulation runs. The per-retire boundary
// check stays on the caller's side.
type Windows struct {
	size    arch.Instr
	tracked []trackedCounter

	mu sync.Mutex
	// records holds the retained series. Unbounded mode appends; with a
	// retention cap it is a fixed ring of retain slots addressed by
	// start/count, so closing a window at steady state overwrites the
	// oldest slot in place — recycling its Counters map — instead of
	// allocating a record plus map per window and memmoving the history.
	records []WindowRecord
	start   int // ring read position (always 0 in unbounded mode)
	count   int // live records
	retain  int // max records kept; <= 0 means unbounded
	sink    func(*WindowRecord)
	// out is the copy of each closed record Close hands the sink. Only
	// Close touches it, on the run loop, so one record serves every
	// window.
	out WindowRecord

	index       uint64
	lastRetired arch.Instr
	lastCycles  arch.Cycle
}

// NewWindows returns a sampler with the given window size in retired
// instructions (0 selects DefaultWindow).
func NewWindows(size arch.Instr) *Windows {
	if size == 0 {
		size = DefaultWindow
	}
	return &Windows{size: size}
}

// Size returns the window size in retired instructions.
func (w *Windows) Size() arch.Instr { return w.size }

// Track adds a counter to the per-window delta set: read returns the
// counter's cumulative value, which only grows between Rebase calls. Call
// before the run starts.
func (w *Windows) Track(name string, read func() uint64) {
	w.tracked = append(w.tracked, trackedCounter{name: name, read: read, last: read()})
}

// Rebase runs reset — which may zero the source of any tracked counter,
// as the warmup→measure statistics reset does — and moves each counter's
// baseline by however much its value changed across the call, so the open
// window's deltas still count every event on both sides of the reset.
func (w *Windows) Rebase(reset func()) {
	for i := range w.tracked {
		w.tracked[i].last -= w.tracked[i].read()
	}
	reset()
	for i := range w.tracked {
		w.tracked[i].last += w.tracked[i].read()
	}
}

// SetSink streams every closed window to fn (e.g. a JSONL writer). It
// leaves the retained series as it is; SetRetain bounds it.
func (w *Windows) SetSink(fn func(*WindowRecord)) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.sink = fn
}

// SetRetain bounds the in-memory record history to n entries (<= 0 means
// unbounded). Call before the run for an allocation-free steady state;
// changing the cap mid-run linearizes the retained history once.
func (w *Windows) SetRetain(n int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if n == w.retain {
		return
	}
	w.linearizeLocked()
	w.retain = n
}

// linearizeLocked rewrites the ring into plain append order (start 0), so
// a retention change can rebuild from a simple prefix.
func (w *Windows) linearizeLocked() {
	if w.start == 0 {
		w.records = w.records[:w.count]
		return
	}
	out := make([]WindowRecord, w.count)
	for i := 0; i < w.count; i++ {
		out[i] = *w.atLocked(i)
	}
	w.records = out
	w.start = 0
}

// atLocked returns the i-th retained record, oldest first.
func (w *Windows) atLocked(i int) *WindowRecord {
	idx := w.start + i
	if idx >= len(w.records) {
		idx -= len(w.records)
	}
	return &w.records[idx]
}

// slotLocked returns the record slot the closing window should fill,
// evicting (and recycling) the oldest slot when the ring is at its cap.
// The returned record's Counters map, if any, may be reused.
func (w *Windows) slotLocked() *WindowRecord {
	if w.retain <= 0 {
		w.records = append(w.records, WindowRecord{})
		w.count = len(w.records)
		return &w.records[w.count-1]
	}
	if len(w.records) != w.retain {
		// First closes after the cap was (re)set: grow the ring to its
		// final size once.
		w.linearizeLocked()
		ring := make([]WindowRecord, w.retain)
		keep := min(w.count, w.retain)
		copy(ring, w.records[w.count-keep:])
		w.records = ring
		w.start, w.count = 0, keep
	}
	if w.count == w.retain {
		rec := &w.records[w.start]
		if w.start++; w.start == w.retain {
			w.start = 0
		}
		return rec
	}
	rec := w.atLocked(w.count)
	w.count++
	return rec
}

// Close ends the current window at the given cumulative retired count and
// cycle, computing counter deltas; annotate (may be nil) can decorate the
// record before it is stored and streamed. The sink, when set, must not
// retain the record past the call: with a retention cap its Counters map
// is recycled into a future window once the record ages out of the ring.
//
// The sink runs after w.mu is released: sinks do I/O (the JSONL
// exporter writes a file) and may legitimately re-enter the Windows
// (Recent, Closed) for context, so streaming under the lock would hold
// every concurrent stall-diagnostic reader hostage — or deadlock.
// Windows are closed by the single run-loop goroutine, so the sink
// still sees records in order, before the next Close can recycle them.
func (w *Windows) Close(retired arch.Instr, cycles arch.Cycle, annotate func(*WindowRecord)) {
	// Sample the counters before taking the lock: the readers are the
	// run loop's own state, not the published series.
	for i := range w.tracked {
		t := &w.tracked[i]
		v := t.read()
		t.delta = v - t.last
		t.last = v
	}
	w.mu.Lock()
	rec := w.slotLocked()
	scratch := rec.Counters
	*rec = WindowRecord{
		Window:  w.index,
		Retired: retired,
		Instr:   retired - w.lastRetired,
		Cycles:  cycles - w.lastCycles,
	}
	if rec.Cycles > 0 {
		rec.IPC = float64(rec.Instr) / float64(rec.Cycles)
	}
	if len(w.tracked) > 0 {
		if scratch == nil {
			scratch = make(map[string]uint64, len(w.tracked))
		} else {
			clear(scratch)
		}
		rec.Counters = scratch
		for i := range w.tracked {
			rec.Counters[w.tracked[i].name] = w.tracked[i].delta
		}
	}
	if annotate != nil {
		// The annotation must land in the stored record before any
		// reader can observe the closed window, so it runs under the
		// lock; it is an in-memory decoration, not I/O.
		annotate(rec)
	}
	w.index++
	w.lastRetired = retired
	w.lastCycles = cycles
	sink := w.sink
	if sink != nil {
		// Shallow copy: the sink contract already forbids retaining the
		// record (its Counters map is ring-recycled), and the slot
		// itself cannot be rewritten before the sink returns — only a
		// later Close recycles slots, and Close is run-loop-only.
		w.out = *rec
	}
	w.mu.Unlock()
	if sink != nil {
		sink(&w.out)
	}
}

// SkipTo resynchronises the sampler after a functional fast-forward: the
// machine consumed instructions up to the cumulative retired count
// without closing windows, so the next window must start from this
// position — window index rebased to the serial coordinate, counter
// baselines re-sampled — instead of reporting the whole skipped span as
// one giant window. No record is emitted for the skipped region.
func (w *Windows) SkipTo(retired arch.Instr, cycles arch.Cycle) {
	for i := range w.tracked {
		w.tracked[i].last = w.tracked[i].read()
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.index = uint64(retired / w.size)
	w.lastRetired = retired
	w.lastCycles = cycles
}

// Records returns a copy of the retained window series. Counters maps are
// deep-copied: the retained originals are recycled as their records age
// out of a capped ring, so callers get stable snapshots.
func (w *Windows) Records() []WindowRecord {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]WindowRecord, w.count)
	for i := range out {
		out[i] = *w.atLocked(i)
		out[i].Counters = cloneCounters(out[i].Counters)
	}
	return out
}

func cloneCounters(m map[string]uint64) map[string]uint64 {
	if m == nil {
		return nil
	}
	out := make(map[string]uint64, len(m))
	//itp:deterministic — whole-map copy; order cannot leak
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Closed returns how many windows have been closed so far.
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
	if n > w.count {
		n = w.count
	}
	out := make([]WindowRecord, n)
	for i := range out {
		out[i] = *w.atLocked(w.count - n + i)
		out[i].Counters = cloneCounters(out[i].Counters)
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

// PublishExpvar exposes the most recent closed windows as an expvar
// variable, so a long campaign can be inspected over -pprof's debug
// endpoint (/debug/vars); each read takes the series under its mutex.
// Publishing the same name twice is a no-op rather than the expvar panic.
func (w *Windows) PublishExpvar(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return w.Recent(expvarRecent) }))
}
