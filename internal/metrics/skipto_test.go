package metrics

import "testing"

// TestSkipTo: after a functional fast-forward the sampler must resume in
// serial coordinates — the next Close gets the serial window index, spans
// only the post-skip region, and counter deltas exclude everything the
// skip accumulated.
func TestSkipTo(t *testing.T) {
	w := NewWindows(1000, Counters{})
	// 77 events accumulated during the skipped span; mid-window positions
	// are rounded down by the caller's schedule, exact here.
	w.SkipTo(5000, 42, Counters{PTWWalkData: 77})
	w.Close(6000, 142, Counters{PTWWalkData: 82}, nil)
	recs := w.Records()
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Window != 5 {
		t.Errorf("window index %d, want 5 (serial coordinate 6000/1000 - 1)", rec.Window)
	}
	if rec.Retired != 6000 || rec.Instr != 1000 {
		t.Errorf("retired %d instr %d, want 6000/1000", rec.Retired, rec.Instr)
	}
	if rec.Cycles != 100 {
		t.Errorf("cycles %d, want 100 (skip baseline 42)", rec.Cycles)
	}
	if got := rec.Counters.PTWWalkData; got != 5 {
		t.Errorf("counter delta %d, want 5 (77 pre-skip increments must be excluded)", got)
	}

	// The following window continues normally.
	w.Close(7000, 150, Counters{PTWWalkData: 85}, nil)
	recs = w.Records()
	if got := recs[1]; got.Window != 6 || got.Counters.PTWWalkData != 3 || got.Instr != 1000 {
		t.Errorf("post-skip continuation wrong: %+v", got)
	}
	if w.Closed() != 7 {
		t.Errorf("Closed() = %d, want 7 (serial index past window 6)", w.Closed())
	}
}
