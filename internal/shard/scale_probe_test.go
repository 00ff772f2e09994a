package shard

import (
	"os"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/harness"
	"itpsim/internal/workload"
)

// TestScaleProbe is a development probe, not part of the battery: it
// prints serial-vs-sharded deltas across warmup geometries so the
// declared bounds can be set empirically. Enable with ITPSIM_SCALE_PROBE=1.
func TestScaleProbe(t *testing.T) {
	if os.Getenv("ITPSIM_SCALE_PROBE") == "" {
		t.Skip("probe disabled")
	}
	type geom struct {
		k       int
		warmup  uint64
		measure uint64
	}
	geoms := []geom{
		{4, 120_000, 240_000},
		{8, 150_000, 2_000_000},
	}
	src := testSource(t, workload.NewCatalog(120, 20).ServerNames()[0])
	ix := NewIndex()
	for _, g := range geoms {
		for _, q := range quadrants {
			sys := quadrantConfig(q)
			serial, _, _ := serialRun(t, sys, src, g.warmup, g.measure, 0)
			plan := Plan{Shards: g.k, Warmup: g.warmup, Measure: g.measure}
			res, err := Run(Config{System: sys}, plan, "probe", src, ix, harness.Options{})
			if err != nil {
				t.Fatal(err)
			}
			instr := serial.TotalInstructions()
			sInstr := res.Stats.TotalInstructions()
			t.Logf("k=%d w=%dk n=%dk %-9s  ΔIPC=%.4f  ΔMPKI=%.4f  Δwalk(i)=%.4f Δwalk(d)=%.4f",
				g.k, g.warmup/1000, g.measure/1000, q.name,
				relDelta(res.IPC, serial.IPC()),
				mpkiDelta(res.Stats.STLB.MPKI(sInstr), serial.STLB.MPKI(instr)),
				relDelta(res.Stats.AvgWalkLatency(arch.InstrClass), serial.AvgWalkLatency(arch.InstrClass)),
				relDelta(res.Stats.AvgWalkLatency(arch.DataClass), serial.AvgWalkLatency(arch.DataClass)))
		}
	}
}
