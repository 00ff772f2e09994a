package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"itpsim/internal/arch"
)

func TestBucketFor(t *testing.T) {
	cases := []struct {
		acc  arch.Access
		want Bucket
	}{
		{arch.Access{Kind: arch.IFetch}, BInstr},
		{arch.Access{Kind: arch.Load}, BData},
		{arch.Access{Kind: arch.Store}, BData},
		{arch.Access{Kind: arch.PTW, Class: arch.InstrClass}, BInstrTrans},
		{arch.Access{Kind: arch.PTW, Class: arch.DataClass}, BDataTrans},
		{arch.Access{Kind: arch.Prefetch}, BPrefetch},
		{arch.Access{Kind: arch.Writeback}, BWriteback},
	}
	for _, c := range cases {
		if got := BucketFor(&c.acc); got != c.want {
			t.Errorf("BucketFor(%v/%v) = %v, want %v", c.acc.Kind, c.acc.Class, got, c.want)
		}
	}
}

func TestBucketString(t *testing.T) {
	for b := Bucket(0); b < NumBuckets; b++ {
		if strings.HasPrefix(b.String(), "bucket(") {
			t.Errorf("bucket %d has no name", b)
		}
	}
	if Bucket(200).String() != "bucket(200)" {
		t.Error("unknown bucket string wrong")
	}
}

func TestLevelCounting(t *testing.T) {
	var l Level
	l.Record(BData, true)
	l.Record(BData, false)
	l.Record(BInstr, false)
	l.Record(BDataTrans, false)
	l.Record(BInstrTrans, true)
	l.Record(BPrefetch, false) // not demand

	if l.TotalHits() != 2 {
		t.Errorf("TotalHits = %d, want 2", l.TotalHits())
	}
	if l.TotalMisses() != 3 {
		t.Errorf("TotalMisses = %d, want 3", l.TotalMisses())
	}
	if got := l.MPKI(1000); got != 3 {
		t.Errorf("MPKI = %v, want 3", got)
	}
	if got := l.BucketMPKI(BData, 1000); got != 1 {
		t.Errorf("BucketMPKI(BData) = %v, want 1", got)
	}
	if hr := l.HitRate(); math.Abs(hr-0.4) > 1e-9 {
		t.Errorf("HitRate = %v, want 0.4", hr)
	}
}

func TestLevelMissLatency(t *testing.T) {
	var l Level
	if l.AvgMissLatency() != 0 {
		t.Error("empty AvgMissLatency should be 0")
	}
	l.RecordMissLatency(100)
	l.RecordMissLatency(200)
	if got := l.AvgMissLatency(); got != 150 {
		t.Errorf("AvgMissLatency = %v, want 150", got)
	}
}

func TestZeroInstructionsMPKI(t *testing.T) {
	var l Level
	l.Record(BData, false)
	if l.MPKI(0) != 0 || l.BucketMPKI(BData, 0) != 0 {
		t.Error("MPKI with zero instructions should be 0")
	}
}

func TestSimIPCAndFractions(t *testing.T) {
	s := NewSim()
	s.Cycles = 1000
	s.Instructions[0] = 1500
	s.Instructions[1] = 500
	if got := s.IPC(); got != 2.0 {
		t.Errorf("IPC = %v, want 2", got)
	}
	s.InstrTransCycles = 100
	if got := s.InstrTransFraction(); got != 0.1 {
		t.Errorf("InstrTransFraction = %v, want 0.1", got)
	}
	if s.TotalInstructions() != 2000 {
		t.Error("TotalInstructions wrong")
	}
}

func TestSimZeroCycles(t *testing.T) {
	s := NewSim()
	if s.IPC() != 0 || s.InstrTransFraction() != 0 {
		t.Error("zero-cycle Sim should report zeros")
	}
}

func TestAvgWalkLatency(t *testing.T) {
	s := NewSim()
	s.PageWalks[arch.InstrClass] = 2
	s.WalkLatSum[arch.InstrClass] = 300
	if got := s.AvgWalkLatency(arch.InstrClass); got != 150 {
		t.Errorf("AvgWalkLatency = %v", got)
	}
	if s.AvgWalkLatency(arch.DataClass) != 0 {
		t.Error("no-walk class should report 0")
	}
}

func TestSimLevelsNamed(t *testing.T) {
	s := NewSim()
	want := []string{"ITLB", "DTLB", "STLB", "L1I", "L1D", "L2C", "LLC"}
	levels := s.Levels()
	if len(levels) != len(want) {
		t.Fatalf("Levels() returned %d entries", len(levels))
	}
	for i, l := range levels {
		if l.Name != want[i] {
			t.Errorf("level %d named %q, want %q", i, l.Name, want[i])
		}
	}
}

func TestSimString(t *testing.T) {
	s := NewSim()
	s.Cycles = 10
	s.Instructions[0] = 20
	out := s.String()
	for _, frag := range []string{"ipc=2.0000", "STLB", "L2C", "dram-accesses"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q:\n%s", frag, out)
		}
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{1, 4}); math.Abs(got-2) > 1e-9 {
		t.Errorf("Geomean([1,4]) = %v, want 2", got)
	}
	if Geomean(nil) != 0 {
		t.Error("Geomean(nil) should be 0")
	}
	if Geomean([]float64{1, 0}) != 0 {
		t.Error("Geomean with non-positive value should be 0")
	}
}

// Property: geomean lies between min and max for positive inputs.
func TestGeomeanBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		lo, hi := math.Inf(1), math.Inf(-1)
		for i, r := range raw {
			xs[i] = float64(r) + 1 // strictly positive
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		g := Geomean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
