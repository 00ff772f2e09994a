package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/workload"
)

// endless is an unbounded instruction loop (a stand-in for a live trace
// feed), so supervision tests control when the run ends.
type endless struct{ i uint64 }

func (e *endless) Next(in *workload.Instr) bool {
	*in = workload.Instr{PC: 0x400000 + arch.Addr(e.i%256)*4}
	if e.i%8 == 0 {
		in.LoadAddr = 0x10000000 + arch.Addr(e.i%4096)*8
	}
	e.i++
	return true
}

// hookStream runs a callback once, just before feeding instruction `at`.
type hookStream struct {
	s    workload.Stream
	n    uint64
	at   uint64
	hook func()
}

func (h *hookStream) Next(in *workload.Instr) bool {
	h.n++
	if h.n == h.at {
		h.hook()
	}
	return h.s.Next(in)
}

func TestRunStreamCountErrors(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, 1000); err == nil || !strings.Contains(err.Error(), "1 or 2 streams") {
		t.Errorf("zero streams should be an error, got: %v", err)
	}
	s := loopStream(4, 0)
	if _, err := m.Run([]workload.Stream{s, s, s}, 1000); err == nil {
		t.Error("three streams should be an error")
	}
}

func TestInterruptStopsRunEarly(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := &hookStream{s: &endless{}, at: 10_000, hook: m.Interrupt}
	res, err := m.Run([]workload.Stream{s}, 1_000_000)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run should return ErrInterrupted, got: %v", err)
	}
	got := res.Stats.TotalInstructions()
	if got == 0 || got >= 1_000_000 {
		t.Errorf("interrupted run retired %d instructions, want partial progress", got)
	}
	if m.Progress() == 0 {
		t.Error("Progress should reflect retired instructions")
	}
}

func TestSnapshotDescribesMachineState(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Snapshot(); !strings.Contains(s, "progress=") {
		t.Errorf("pre-run snapshot should still report progress, got: %q", s)
	}
	if _, err := m.Run([]workload.Stream{&endless{}}, 100_000); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	for _, frag := range []string{"progress=", "stlb-mshrs=", "stlb-occ", "l2c-occ", "dispatch-bound"} {
		if !strings.Contains(snap, frag) {
			t.Errorf("snapshot missing %q: %q", frag, snap)
		}
	}
}

// diagRef formats publishDiag's text with fmt: the reference the
// appended text must match byte for byte.
func diagRef(m *Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "retired=%d", m.retiredLocal)
	for _, th := range m.threads {
		fmt.Fprintf(&b, " t%d{retired=%d fetchCycle=%d lastRetire=%d done=%v}",
			th.id, th.retired, th.fetchCycle, th.lastRetire, th.done)
	}
	walks := 0
	for _, e := range m.stlbMSHRs {
		if e.valid && e.readyAt > uint64(m.maxRetireCycle) {
			walks++
		}
	}
	fmt.Fprintf(&b, " stlb-mshrs=%d/%d", walks, len(m.stlbMSHRs))
	si, sd := m.STLBOccupancy()
	fmt.Fprintf(&b, " stlb-occ{instr=%d data=%d}", si, sd)
	blocks, pte, dataPTE := m.L2COccupancy()
	fmt.Fprintf(&b, " l2c-occ{blocks=%d pte=%d data-pte=%d}", blocks, pte, dataPTE)
	fmt.Fprintf(&b, " dispatch-bound{front=%d back=%d}", m.frontBound, m.backBound)
	return b.String()
}

// TestPublishDiagText: mid-run, with an SMT pair's two threads in the
// text, a publish writes exactly the fmt reference and allocates
// nothing: the text is rebuilt in place in the machine's buffer.
func TestPublishDiagText(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	a, _ := cat.Get("srv_000")
	b, _ := cat.Get("srv_001")
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	checked := false
	check := func() {
		checked = true
		m.publishDiag()
		if got, want := string(m.diagBuf), diagRef(m); got != want {
			t.Errorf("snapshot text\n got %q\nwant %q", got, want)
		}
		if n := testing.AllocsPerRun(100, m.publishDiag); n != 0 {
			t.Errorf("publishDiag allocates %.0f times, want 0", n)
		}
	}
	streams := []workload.Stream{&hookStream{s: a.NewStream(), at: 20_000, hook: check}, b.NewStream()}
	if _, err := m.Run(streams, 30_000); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("the run ended before the check")
	}
}

// TestSnapshotSumsSplitSTLB: a split STLB's snapshot counts the valid
// entries of both halves by class.
func TestSnapshotSumsSplitSTLB(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	cfg := testConfig()
	cfg.SplitSTLB = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{spec.NewStream()}, 30_000); err != nil {
		t.Fatal(err)
	}
	var instr, data int
	for _, half := range m.stlbHalves() {
		i, d := half.Occupancy()
		instr += i
		data += d
	}
	want := fmt.Sprintf(" stlb-occ{instr=%d data=%d}", instr, data)
	if snap := m.Snapshot(); instr == 0 || data == 0 || !strings.Contains(snap, want) {
		t.Errorf("split STLB holds %d instruction and %d data entries; snapshot: %q", instr, data, snap)
	}
}

// TestSnapshotCountsWalksInFlight: the snapshot counts the STLB MSHRs
// whose walk completes after the last retire cycle. A finished run has
// none in flight, although every MSHR it used stays valid.
func TestSnapshotCountsWalksInFlight(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{spec.NewStream()}, 30_000); err != nil {
		t.Fatal(err)
	}
	n := len(m.stlbMSHRs)
	if snap := m.Snapshot(); !strings.Contains(snap, fmt.Sprintf(" stlb-mshrs=0/%d ", n)) {
		t.Errorf("finished run: %q", snap)
	}
	m.stlbMSHRs[0].valid = true
	m.stlbMSHRs[0].readyAt = uint64(m.maxRetireCycle) + 1
	m.publishDiag()
	if snap := m.Snapshot(); !strings.Contains(snap, fmt.Sprintf(" stlb-mshrs=1/%d ", n)) {
		t.Errorf("one walk in flight: %q", snap)
	}
}

func TestStreamErrorFailsRun(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := workload.NewErrorStream(&endless{}, 5_000, nil)
	res, err := m.Run([]workload.Stream{bad}, 100_000)
	if !errors.Is(err, workload.ErrInjected) {
		t.Fatalf("stream error should surface from Run, got: %v", err)
	}
	if res.Stats.TotalInstructions() == 0 {
		t.Error("partial stats should survive a stream error")
	}
}
