package experiments

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/stats"
)

// Fig1 reproduces Figure 1: fraction of cycles spent on instruction
// address translation as a function of ITLB size, for the server and
// SPEC-like suites.
func Fig1(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig1",
		Title:  "Instruction address translation overhead vs ITLB size",
		YLabel: "% of cycles on instruction address translation",
	}
	sizes := []int{8, 64, 128, 512, 1024}
	for _, suite := range []struct {
		name  string
		names []string
	}{
		{"qualcomm-server", r.serverSet()},
		{"spec", r.specSet()},
	} {
		for _, size := range sizes {
			cfg := config.Default().WithITLBEntries(size)
			sims, err := r.runAll(r.specs(solos(suite.names), cfg))
			if err != nil {
				return res, err
			}
			sum := 0.0
			for _, s := range sims {
				sum += 100 * s.InstrTransFraction()
			}
			res.Rows = append(res.Rows, Row{
				Series: suite.name,
				Label:  fmt.Sprintf("%d entries", size),
				Value:  sum / float64(len(sims)),
			})
		}
	}
	res.Notes = append(res.Notes,
		"paper: ~12.5% for Qualcomm Server and ~0.03% for SPEC at 64-128 entries; >=1024 entries needed to flatten the server curve")
	return res, nil
}

// Fig2 reproduces Figure 2: per-workload STLB MPKI due to instruction
// references.
func Fig2(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig2",
		Title:  "STLB MPKI for instruction references",
		YLabel: "instruction STLB MPKI",
	}
	cfg := config.Default()
	for _, suite := range []struct {
		name  string
		names []string
	}{
		{"qualcomm-server", r.serverSet()},
		{"spec", r.specSet()},
	} {
		sims, err := r.runAll(r.specs(solos(suite.names), cfg))
		if err != nil {
			return res, err
		}
		sum := 0.0
		for i, s := range sims {
			v := s.STLB.BucketMPKI(stats.BInstr, s.TotalInstructions())
			sum += v
			res.Rows = append(res.Rows, Row{
				Series: suite.name,
				Label:  suite.names[i],
				Value:  v,
				Extra: map[string]float64{
					"total-stlb-mpki": s.STLB.MPKI(s.TotalInstructions()),
				},
			})
		}
		res.Rows = append(res.Rows, Row{Series: suite.name, Label: "MEAN", Value: sum / float64(len(sims))})
	}
	res.Notes = append(res.Notes,
		"paper: server instruction STLB MPKI up to 0.9, SPEC negligible; all server workloads keep total STLB MPKI >= 1")
	return res, nil
}

// Fig3 reproduces Figure 3: IPC improvement of the keep-instructions
// probabilistic LRU variant over plain LRU, for P in {0.2,0.4,0.6,0.8}.
func Fig3(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig3",
		Title:  "Prioritizing instruction translations by probability P",
		YLabel: "% IPC improvement over LRU",
	}
	names := r.serverSet()
	bases, err := r.runAll(r.specs(solos(names), config.Default()))
	if err != nil {
		return res, err
	}
	for _, p := range []float64{0.2, 0.4, 0.6, 0.8} {
		cfg := config.Default()
		cfg.STLBPolicy = "problru"
		cfg.ProbKeepInstr = p
		sims, err := r.runAll(r.specs(solos(names), cfg))
		if err != nil {
			return res, err
		}
		series := fmt.Sprintf("P=%.1f", p)
		for i := range names {
			res.Rows = append(res.Rows, Row{Series: series, Label: names[i], Value: speedup(bases[i], sims[i])})
		}
		res.Rows = append(res.Rows, Row{Series: series, Label: "GEOMEAN", Value: geomeanSpeedup(bases, sims)})
	}
	res.Notes = append(res.Notes,
		"paper: higher P (keep instructions) improves IPC by up to ~5%; low P degrades it")
	return res, nil
}

// Fig4 reproduces Figure 4: the MPKI breakdown at L2C and LLC under LRU
// vs the keep-instructions variant with P=0.8.
func Fig4(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig4",
		Title:  "L2C/LLC MPKI breakdown: LRU vs Keep Instructions (P=0.8)",
		YLabel: "MPKI by access class",
	}
	names := r.serverSet()
	for _, pol := range []struct {
		series string
		cfg    config.SystemConfig
	}{
		{"LRU", config.Default()},
		{"KeepInstr(P=0.8)", func() config.SystemConfig {
			c := config.Default()
			c.STLBPolicy = "problru"
			c.ProbKeepInstr = 0.8
			return c
		}()},
	} {
		sims, err := r.runAll(r.specs(solos(names), pol.cfg))
		if err != nil {
			return res, err
		}
		for _, lvl := range []struct {
			name string
			get  func(*stats.Sim) *stats.Level
		}{
			{"L2C", func(s *stats.Sim) *stats.Level { return &s.L2C }},
			{"LLC", func(s *stats.Sim) *stats.Level { return &s.LLC }},
		} {
			var d, i4, dt, it float64
			for _, s := range sims {
				ti := s.TotalInstructions()
				l := lvl.get(s)
				d += l.BucketMPKI(stats.BData, ti)
				i4 += l.BucketMPKI(stats.BInstr, ti)
				dt += l.BucketMPKI(stats.BDataTrans, ti)
				it += l.BucketMPKI(stats.BInstrTrans, ti)
			}
			n := float64(len(sims))
			res.Rows = append(res.Rows,
				Row{Series: pol.series, Label: lvl.name + " dMPKI", Value: d / n},
				Row{Series: pol.series, Label: lvl.name + " iMPKI", Value: i4 / n},
				Row{Series: pol.series, Label: lvl.name + " dtMPKI", Value: dt / n},
				Row{Series: pol.series, Label: lvl.name + " itMPKI", Value: it / n},
			)
		}
	}
	res.Notes = append(res.Notes,
		"paper: prioritizing instructions in the STLB raises dtMPKI (cache misses from data page walks) at both levels")
	return res, nil
}

// fig8 is the shared implementation of Figures 8a/8b.
func fig8(o Options, smt bool) (Result, error) {
	r := newRunner(o)
	which, title := "fig8a", "IPC improvement vs LRU, single hardware thread"
	if smt {
		which, title = "fig8b", "IPC improvement vs LRU, two hardware threads"
	}
	res := Result{Figure: which, Title: title, YLabel: "% IPC improvement over LRU baseline"}

	units, labels := r.units(smt), r.serverSet()
	if smt {
		labels = nil
		for _, p := range r.pairs() {
			labels = append(labels, p.Name)
		}
	}
	bases, err := r.runAll(r.specs(units, config.Default()))
	if err != nil {
		return res, err
	}
	for _, combo := range PolicyTable() {
		cfg := config.Default()
		combo.apply(&cfg)
		sims, err := r.runAll(r.specs(units, cfg))
		if err != nil {
			return res, err
		}
		for i, label := range labels {
			res.Rows = append(res.Rows, Row{Series: combo.Name, Label: label, Value: speedup(bases[i], sims[i])})
		}
		res.Rows = append(res.Rows, Row{Series: combo.Name, Label: "GEOMEAN", Value: geomeanSpeedup(bases, sims)})
	}
	if smt {
		res.Notes = append(res.Notes, "paper geomeans: TDRRIP +8.5%, PTP ~0%, iTP +0.3%, iTP+xPTP +11.4%")
	} else {
		res.Notes = append(res.Notes, "paper geomeans: TDRRIP +9.3%, PTP +7.1%, CHiRP ~0%, iTP +2.2%, iTP+xPTP +18.9%")
	}
	return res, nil
}

// Fig8a reproduces Figure 8a (single-thread policy comparison).
func Fig8a(o Options) (Result, error) { return fig8(o, false) }

// Fig8b reproduces Figure 8b (two-hardware-thread policy comparison).
func Fig8b(o Options) (Result, error) { return fig8(o, true) }

// Fig9 reproduces Figure 9: MPKI and average miss latency at the STLB,
// L2C, and LLC for each policy, single-thread and SMT.
func Fig9(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig9",
		Title:  "MPKI and average miss latency at STLB/L2C/LLC",
		YLabel: "MPKI (extra: avg miss latency in cycles)",
	}
	combos := append([]Combo{{Name: "LRU", STLB: "lru", L2C: "lru", LLC: "lru"}}, PolicyTable()...)
	for _, mode := range []struct {
		tag string
		smt bool
	}{{"1T", false}, {"2T", true}} {
		units := r.units(mode.smt)
		for _, combo := range combos {
			cfg := config.Default()
			combo.apply(&cfg)
			sims, err := r.runAll(r.specs(units, cfg))
			if err != nil {
				return res, err
			}
			for _, lvl := range []struct {
				name string
				get  func(*stats.Sim) *stats.Level
			}{
				{"STLB", func(s *stats.Sim) *stats.Level { return &s.STLB }},
				{"L2C", func(s *stats.Sim) *stats.Level { return &s.L2C }},
				{"LLC", func(s *stats.Sim) *stats.Level { return &s.LLC }},
			} {
				var mpki, lat float64
				for _, s := range sims {
					mpki += lvl.get(s).MPKI(s.TotalInstructions())
					lat += lvl.get(s).AvgMissLatency()
				}
				n := float64(len(sims))
				res.Rows = append(res.Rows, Row{
					Series: combo.Name,
					Label:  mode.tag + " " + lvl.name,
					Value:  mpki / n,
					Extra:  map[string]float64{"avg-miss-latency": lat / n},
				})
			}
		}
	}
	res.Notes = append(res.Notes,
		"paper (1T): iTP+xPTP cuts STLB miss latency 170.9->92.3 and LLC MPKI 13.8->8.4 while L2C MPKI rises 30.6->46.5")
	return res, nil
}

// Fig10 reproduces Figure 10: the STLB MPKI breakdown between instruction
// and data translations under LRU vs iTP.
func Fig10(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig10",
		Title:  "STLB MPKI breakdown (iMPKI vs dMPKI), LRU vs iTP",
		YLabel: "STLB MPKI",
	}
	for _, mode := range []struct {
		tag string
		smt bool
	}{{"1T", false}, {"2T", true}} {
		units := r.units(mode.smt)
		for _, pol := range []string{"lru", "itp"} {
			cfg := config.Default()
			cfg.STLBPolicy = pol
			sims, err := r.runAll(r.specs(units, cfg))
			if err != nil {
				return res, err
			}
			var im, dm float64
			for _, s := range sims {
				ti := s.TotalInstructions()
				im += s.STLB.BucketMPKI(stats.BInstr, ti)
				dm += s.STLB.BucketMPKI(stats.BData, ti)
			}
			n := float64(len(sims))
			res.Rows = append(res.Rows,
				Row{Series: pol, Label: mode.tag + " iMPKI", Value: im / n},
				Row{Series: pol, Label: mode.tag + " dMPKI", Value: dm / n},
			)
		}
	}
	res.Notes = append(res.Notes,
		"paper: iTP significantly reduces iMPKI while dMPKI increases — the intended trade")
	return res, nil
}

// Fig11 reproduces Figure 11: iTP and iTP+xPTP gains when the LLC runs
// LRU, SHiP, or Mockingjay; the baseline for each scenario uses the same
// LLC policy with LRU at STLB and L2C.
func Fig11(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig11",
		Title:  "Sensitivity to the LLC replacement policy",
		YLabel: "% geomean IPC improvement over LRU-STLB/LRU-L2C with the same LLC policy",
	}
	for _, mode := range []struct {
		tag string
		smt bool
	}{{"1T", false}, {"2T", true}} {
		units := r.units(mode.smt)
		for _, llc := range []string{"lru", "ship", "mockingjay"} {
			baseCfg := config.Default()
			baseCfg.LLCPolicy = llc
			bases, err := r.runAll(r.specs(units, baseCfg))
			if err != nil {
				return res, err
			}
			for _, prop := range []struct{ name, stlb, l2c string }{
				{"iTP", "itp", "lru"},
				{"iTP+xPTP", "itp", "xptp"},
			} {
				cfg := baseCfg
				cfg.STLBPolicy = prop.stlb
				cfg.L2CPolicy = prop.l2c
				sims, err := r.runAll(r.specs(units, cfg))
				if err != nil {
					return res, err
				}
				res.Rows = append(res.Rows, Row{
					Series: prop.name,
					Label:  mode.tag + " LLC=" + llc,
					Value:  geomeanSpeedup(bases, sims),
				})
			}
		}
	}
	res.Notes = append(res.Notes,
		"paper (1T): iTP +2.2/+2.3/+1.4%, iTP+xPTP +18.9/+15.8/+1.6% under LRU/SHiP/Mockingjay")
	return res, nil
}

// Fig12 reproduces Figure 12: iTP and iTP+xPTP across ITLB sizes; each
// size's baseline is LRU with the same ITLB.
func Fig12(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig12",
		Title:  "Sensitivity to ITLB size",
		YLabel: "% geomean IPC improvement over LRU with the same ITLB",
	}
	for _, mode := range []struct {
		tag string
		smt bool
	}{{"1T", false}, {"2T", true}} {
		units := r.units(mode.smt)
		for _, size := range []int{1024, 512, 128, 64} {
			baseCfg := config.Default().WithITLBEntries(size)
			bases, err := r.runAll(r.specs(units, baseCfg))
			if err != nil {
				return res, err
			}
			for _, prop := range []struct{ name, stlb, l2c string }{
				{"iTP", "itp", "lru"},
				{"iTP+xPTP", "itp", "xptp"},
			} {
				cfg := baseCfg
				cfg.STLBPolicy = prop.stlb
				cfg.L2CPolicy = prop.l2c
				sims, err := r.runAll(r.specs(units, cfg))
				if err != nil {
					return res, err
				}
				res.Rows = append(res.Rows, Row{
					Series: prop.name,
					Label:  fmt.Sprintf("%s ITLB=%d", mode.tag, size),
					Value:  geomeanSpeedup(bases, sims),
				})
			}
		}
	}
	res.Notes = append(res.Notes,
		"paper: gains consistent for ITLB <= 512 entries; muted at 1024 entries (single thread)")
	return res, nil
}

// Fig13 reproduces Figure 13: policies under mixed 4KB/2MB page backing,
// with 0/10/50/100% of the footprint on 2MB pages.
func Fig13(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig13",
		Title:  "Allocating instructions and data on 2MB pages",
		YLabel: "% geomean IPC improvement over LRU with the same page mix",
	}
	combos := []Combo{
		{Name: "TDRRIP", STLB: "lru", L2C: "tdrrip", LLC: "lru"},
		{Name: "PTP", STLB: "lru", L2C: "ptp", LLC: "lru"},
		{Name: "CHiRP", STLB: "chirp", L2C: "lru", LLC: "lru"},
		{Name: "iTP+xPTP", STLB: "itp", L2C: "xptp", LLC: "lru"},
	}
	for _, mode := range []struct {
		tag string
		smt bool
	}{{"1T", false}, {"2T", true}} {
		units := r.units(mode.smt)
		for _, frac := range []float64{0, 0.1, 0.5, 1.0} {
			baseCfg := config.Default()
			baseCfg.HugePageFraction = frac
			bases, err := r.runAll(r.specs(units, baseCfg))
			if err != nil {
				return res, err
			}
			for _, combo := range combos {
				cfg := baseCfg
				combo.apply(&cfg)
				cfg.HugePageFraction = frac
				sims, err := r.runAll(r.specs(units, cfg))
				if err != nil {
					return res, err
				}
				res.Rows = append(res.Rows, Row{
					Series: combo.Name,
					Label:  fmt.Sprintf("%s %.0f%% 2MB", mode.tag, 100*frac),
					Value:  geomeanSpeedup(bases, sims),
				})
			}
		}
	}
	res.Notes = append(res.Notes,
		"paper: all gains shrink as the 2MB fraction grows; iTP+xPTP stays ahead at every mix")
	return res, nil
}

// Fig14 reproduces Figure 14: unified STLB with iTP+xPTP vs split STLB
// designs, at 1536 and 3072 total entries; the baseline is the 1536-entry
// unified STLB with LRU everywhere.
func Fig14(o Options) (Result, error) {
	r := newRunner(o)
	res := Result{
		Figure: "fig14",
		Title:  "Unified STLB with iTP+xPTP vs split STLB",
		YLabel: "% geomean IPC improvement over 1536-entry unified STLB with LRU",
	}
	type design struct {
		name string
		cfg  config.SystemConfig
	}
	mk := func(entries int, split bool, itp bool) config.SystemConfig {
		cfg := config.Default().WithSTLBEntries(entries)
		cfg.SplitSTLB = split
		if itp {
			cfg.STLBPolicy = "itp"
			cfg.L2CPolicy = "xptp"
		}
		return cfg
	}
	designs := []design{
		{"unified-1536 iTP+xPTP", mk(1536, false, true)},
		{"split-1536 LRU", mk(1536, true, false)},
		{"unified-3072 iTP+xPTP", mk(3072, false, true)},
		{"split-3072 LRU", mk(3072, true, false)},
	}
	for _, mode := range []struct {
		tag string
		smt bool
	}{{"1T", false}, {"2T", true}} {
		units := r.units(mode.smt)
		bases, err := r.runAll(r.specs(units, config.Default()))
		if err != nil {
			return res, err
		}
		for _, d := range designs {
			sims, err := r.runAll(r.specs(units, d.cfg))
			if err != nil {
				return res, err
			}
			res.Rows = append(res.Rows, Row{
				Series: d.name,
				Label:  mode.tag,
				Value:  geomeanSpeedup(bases, sims),
			})
		}
	}
	res.Notes = append(res.Notes,
		"paper: equal-capacity split STLB trails the unified+iTP+xPTP design; doubling the unified STLB with iTP+xPTP beats the doubled split design")
	return res, nil
}

// Tab1 renders Table 1 (the simulated system configuration) as rows.
func Tab1(Options) (Result, error) {
	cfg := config.Default()
	res := Result{Figure: "tab1", Title: "System configuration (Table 1)"}
	add := func(k string, v float64, label string) {
		res.Rows = append(res.Rows, Row{Series: k, Label: label, Value: v})
	}
	add("core", float64(cfg.ROBSize), "ROB entries")
	add("core", float64(cfg.FetchWidth), "fetch width")
	add("core", float64(cfg.FTQDepth), "FTQ entries")
	add("ITLB", float64(cfg.ITLB.Entries()), "entries")
	add("DTLB", float64(cfg.DTLB.Entries()), "entries")
	add("STLB", float64(cfg.STLB.Entries()), "entries")
	add("STLB", float64(cfg.STLB.Latency), "latency")
	add("iTP", float64(cfg.ITP.N), "N")
	add("iTP", float64(cfg.ITP.M), "M")
	add("iTP", float64(cfg.ITP.FreqBits), "Freq bits")
	add("xPTP", float64(cfg.XPTP.K), "K")
	add("L1I", float64(cfg.L1I.Entries()*arch.BlockSize), "bytes")
	add("L1D", float64(cfg.L1D.Entries()*arch.BlockSize), "bytes")
	add("L2C", float64(cfg.L2C.Entries()*arch.BlockSize), "bytes")
	add("LLC", float64(cfg.LLC.Entries()*arch.BlockSize), "bytes")
	add("PTW", float64(cfg.PageWalkers), "concurrent walks")
	return res, nil
}

// Tab2 renders Table 2 (the policy/structure matrix) as rows.
func Tab2(Options) (Result, error) {
	res := Result{Figure: "tab2", Title: "Considered techniques and where they apply (Table 2)"}
	for _, c := range PolicyTable() {
		res.Rows = append(res.Rows, Row{
			Series: c.Name,
			Label:  fmt.Sprintf("STLB=%s L2C=%s LLC=%s", c.STLB, c.L2C, c.LLC),
			Value:  0,
		})
	}
	res.Notes = append(res.Notes, "L1D always uses LRU; value column unused")
	return res, nil
}
