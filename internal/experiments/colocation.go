package experiments

import (
	"fmt"

	"itpsim/internal/config"
	"itpsim/internal/run"
	"itpsim/internal/stats"
)

// colocQuadrants returns the four policy quadrants of the multi-core
// co-location study: baseline vs iTP on the shared STLB crossed with
// baseline vs adaptive xPTP on the shared L2C (LLC stays LRU).
func colocQuadrants() []Combo {
	return []Combo{
		{Name: "LRU+LRU", STLB: "lru", L2C: "lru", LLC: "lru"},
		{Name: "iTP+LRU", STLB: "itp", L2C: "lru", LLC: "lru"},
		{Name: "LRU+xPTP", STLB: "lru", L2C: "xptp", LLC: "lru"},
		{Name: "iTP+xPTP", STLB: "itp", L2C: "xptp", LLC: "lru"},
	}
}

// MC1 is the multi-core co-location study: N cores (Options.Cores,
// default 4), each running one server tenant from the catalogue (cycled
// when N exceeds the participating set), contending on the shared
// STLB/L2C/LLC/page-walker/DRAM. For each policy quadrant it reports one
// row per tenant (per-tenant IPC, solo IPC on an otherwise-idle machine
// under the same policies, and the slowdown solo/coloc >= 1) plus an
// aggregate row carrying whole-machine IPC, summed per-tenant throughput,
// min/max slowdown, the fairness index min/max in [0,1] (1 = perfectly
// even interference), and aggregate STLB MPKI over all retired
// instructions.
func MC1(o Options) (Result, error) {
	cores := o.Cores
	if cores <= 1 {
		cores = 4
	}
	if cores > config.MaxCores {
		return Result{}, fmt.Errorf("experiments: mc1 needs Cores <= %d, got %d", config.MaxCores, cores)
	}
	r := newRunner(o)
	res := Result{
		Figure: "mc1",
		Title:  fmt.Sprintf("Multi-core co-location (%d cores): per-tenant IPC, fairness, aggregate MPKI", cores),
		YLabel: "per-tenant IPC (Extra: solo_ipc, slowdown; aggregate rows: fairness, stlb_mpki)",
	}
	set := r.serverSet()
	if len(set) == 0 {
		return res, fmt.Errorf("experiments: mc1 needs at least one server workload")
	}
	tenants := make([]string, cores)
	for i := range tenants {
		tenants[i] = set[i%len(set)]
	}

	for _, q := range colocQuadrants() {
		cfg := config.Default()
		q.apply(&cfg)

		// Solo baselines: each tenant workload alone on a 1-core machine
		// under the same policy quadrant; repeated tenants share one run.
		soloRuns, err := r.runAll(r.specs(solos(tenants), cfg))
		if err != nil {
			return res, err
		}

		ccfg := cfg
		ccfg.Cores = cores
		colocs, err := r.runAll([]run.Spec{r.spec(tenants, ccfg)})
		if err != nil {
			return res, err
		}
		coloc := colocs[0]

		var throughput, minSlow, maxSlow float64
		for i, n := range tenants {
			ten := &coloc.Cores[i]
			ipc := ten.IPC()
			solo := soloRuns[i]
			var slow float64
			if ipc > 0 {
				slow = solo.IPC() / ipc
			}
			throughput += ipc
			if i == 0 || slow < minSlow {
				minSlow = slow
			}
			if slow > maxSlow {
				maxSlow = slow
			}
			res.Rows = append(res.Rows, Row{
				Series: q.Name,
				Label:  fmt.Sprintf("t%d:%s", i, n),
				Value:  ipc,
				Extra: map[string]float64{
					"solo_ipc": solo.IPC(),
					"slowdown": slow,
				},
			})
		}
		fairness := 0.0
		if maxSlow > 0 {
			fairness = minSlow / maxSlow
		}
		res.Rows = append(res.Rows, Row{
			Series: q.Name,
			Label:  "AGGREGATE",
			Value:  coloc.IPC(),
			Extra: map[string]float64{
				"throughput":   throughput,
				"min_slowdown": minSlow,
				"max_slowdown": maxSlow,
				"fairness":     fairness,
				"stlb_mpki":    aggregateSTLBMPKI(coloc),
			},
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d cores, tenants cycled over %d server workloads; slowdown = solo IPC / co-located IPC per tenant", cores, len(set)),
		"fairness = min slowdown / max slowdown (1 = interference hits every tenant equally)",
		"the paper-style sweep runs this at 4, 16, and 64 cores (-cores)")
	return res, nil
}

// aggregateSTLBMPKI returns demand STLB misses per kilo-instruction over
// every retired instruction of the co-located run.
func aggregateSTLBMPKI(s *stats.Sim) float64 {
	return s.STLB.MPKI(s.TotalInstructions())
}
