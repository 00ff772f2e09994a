package sim

import (
	"fmt"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/stats"
	"itpsim/internal/tlb"
	"itpsim/internal/workload"
)

// loopStream replays a tiny instruction loop: n distinct PCs in one page,
// optionally with a load per iteration.
func loopStream(pcs int, loadEvery int) workload.Stream {
	var instrs []workload.Instr
	for i := 0; i < pcs; i++ {
		in := workload.Instr{PC: 0x400000 + arch.Addr(i*4)}
		if loadEvery > 0 && i%loadEvery == 0 {
			in.LoadAddr = 0x10000000 + arch.Addr(i)*8
		}
		instrs = append(instrs, in)
	}
	return &workload.Replay{Instrs: instrs}
}

func testConfig() config.SystemConfig {
	return config.Default()
}

// TestNewMachineValidatesConfig: invalid configurations fail NewMachine
// with an error, not a panic. Past validation, the TLB cases would break
// the machine: an STLB without MSHRs dereferences a nil MSHR on its
// first miss, TLB ways past config.MaxCacheWays wrap the byte stack
// positions, and a split STLB of one set leaves each half zero sets.
func TestNewMachineValidatesConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*config.SystemConfig)
	}{
		{"rob-zero", func(c *config.SystemConfig) { c.ROBSize = 0 }},
		{"stlb-no-mshrs", func(c *config.SystemConfig) { c.STLB.MSHRs = 0 }},
		{"stlb-300-ways", func(c *config.SystemConfig) { c.STLB.Ways = 300 }},
		{"dtlb-129-ways", func(c *config.SystemConfig) { c.DTLB.Ways = config.MaxCacheWays + 1 }},
		{"split-stlb-one-set", func(c *config.SystemConfig) {
			c.SplitSTLB = true
			c.STLB.Sets = 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewMachine panicked: %v", r)
				}
			}()
			cfg := testConfig()
			tc.mut(&cfg)
			m, err := NewMachine(cfg)
			if err == nil {
				m.Release()
				t.Fatal("NewMachine accepted the configuration")
			}
		})
	}
}

func TestNewMachineUnknownPolicies(t *testing.T) {
	for _, mut := range []func(*config.SystemConfig){
		func(c *config.SystemConfig) { c.STLBPolicy = "bogus" },
		func(c *config.SystemConfig) { c.L2CPolicy = "bogus" },
		func(c *config.SystemConfig) { c.LLCPolicy = "bogus" },
	} {
		cfg := testConfig()
		mut(&cfg)
		if _, err := NewMachine(cfg); err == nil {
			t.Error("unknown policy should fail")
		}
	}
}

func TestAllPolicyCombinationsConstruct(t *testing.T) {
	stlbs := []string{"lru", "itp", "chirp", "problru"}
	l2cs := []string{"lru", "xptp", "xptp-static", "xptp-emissary", "ptp", "tdrrip", "tship", "emissary", "drrip", "srrip", "ship", "mockingjay"}
	llcs := []string{"lru", "ship", "mockingjay", "hawkeye", "tship"}
	for _, s := range stlbs {
		for _, l2 := range l2cs {
			for _, l3 := range llcs {
				cfg := testConfig()
				cfg.STLBPolicy, cfg.L2CPolicy, cfg.LLCPolicy = s, l2, l3
				if _, err := NewMachine(cfg); err != nil {
					t.Errorf("combo %s/%s/%s: %v", s, l2, l3, err)
				}
			}
		}
	}
}

func TestRunBasicAccounting(t *testing.T) {
	m, err := NewMachine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Run([]workload.Stream{loopStream(1000, 5)}, 1000)
	if got := res.Stats.TotalInstructions(); got != 1000 {
		t.Errorf("instructions = %d, want 1000", got)
	}
	if res.Stats.Cycles == 0 {
		t.Error("no cycles recorded")
	}
	if res.IPC <= 0 || res.IPC > float64(m.cfg.RetireWidth) {
		t.Errorf("IPC = %v out of plausible range", res.IPC)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_001")
	var cycles [2]uint64
	for i := range cycles {
		m, _ := NewMachine(testConfig())
		res, _ := m.Run([]workload.Stream{spec.NewStream()}, 50000)
		cycles[i] = uint64(res.Stats.Cycles)
	}
	if cycles[0] != cycles[1] {
		t.Errorf("two identical runs diverged: %d vs %d cycles", cycles[0], cycles[1])
	}
}

func TestStreamShorterThanBudget(t *testing.T) {
	m, _ := NewMachine(testConfig())
	res, _ := m.Run([]workload.Stream{loopStream(100, 0)}, 10000)
	if got := res.Stats.TotalInstructions(); got != 100 {
		t.Errorf("instructions = %d, want 100 (stream exhausted)", got)
	}
}

func TestTranslationPathCounts(t *testing.T) {
	m, _ := NewMachine(testConfig())
	// One page of code, loads spread over many pages: expect DTLB misses
	// and walks, ITLB near-perfect after first touch.
	var instrs []workload.Instr
	for i := 0; i < 5000; i++ {
		in := workload.Instr{PC: 0x400000 + arch.Addr((i%16)*4)}
		in.LoadAddr = 0x10000000000 + arch.Addr(i)*arch.PageSize4K
		instrs = append(instrs, in)
	}
	res, _ := m.Run([]workload.Stream{&workload.Replay{Instrs: instrs}}, 5000)
	s := res.Stats
	if s.PageWalks[arch.DataClass] < 4000 {
		t.Errorf("expected ~5000 data walks, got %d", s.PageWalks[arch.DataClass])
	}
	if s.ITLB.TotalMisses() > 5 {
		t.Errorf("ITLB misses = %d, want few (single code page)", s.ITLB.TotalMisses())
	}
	if s.DTLB.TotalMisses() < 4000 {
		t.Errorf("DTLB misses = %d, want ~5000", s.DTLB.TotalMisses())
	}
	// Every data walk inserts PTE blocks into L2C.
	_, pte, dataPTE := m.L2COccupancy()
	if pte == 0 || dataPTE == 0 {
		t.Error("walks should leave PTE blocks in the L2C")
	}
}

func TestInstrTransCyclesAccumulate(t *testing.T) {
	m, _ := NewMachine(testConfig())
	// Code spanning many pages: instruction translations must cost cycles.
	var instrs []workload.Instr
	for i := 0; i < 20000; i++ {
		instrs = append(instrs, workload.Instr{PC: 0x400000 + arch.Addr(i)*256})
	}
	res, _ := m.Run([]workload.Stream{&workload.Replay{Instrs: instrs}}, 20000)
	if res.Stats.InstrTransCycles == 0 {
		t.Error("instruction translation cycles not accounted")
	}
	if res.Stats.PageWalks[arch.InstrClass] == 0 {
		t.Error("expected instruction page walks")
	}
}

func TestSMTRunSharesStructures(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	a, _ := cat.Get("srv_000")
	b, _ := cat.Get("srv_001")
	m, _ := NewMachine(testConfig())
	res, _ := m.Run([]workload.Stream{a.NewStream(), b.NewStream()}, 20000)
	if res.Stats.Instructions[0] != 20000 || res.Stats.Instructions[1] != 20000 {
		t.Errorf("per-thread instructions = %v", res.Stats.Instructions)
	}
	if res.Stats.TotalInstructions() != 40000 {
		t.Error("total instructions wrong")
	}
	if res.IPC <= 0 {
		t.Error("SMT IPC not computed")
	}
}

func TestSMTContention(t *testing.T) {
	// Co-running two copies of a workload must be slower per thread than
	// running one alone (shared STLB/caches/DRAM contention).
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	solo, _ := NewMachine(testConfig())
	soloRes, _ := solo.Run([]workload.Stream{spec.NewStream()}, 50000)

	smt, _ := NewMachine(testConfig())
	smtRes, _ := smt.Run([]workload.Stream{spec.NewStream(), spec.NewStream()}, 50000)

	perThreadSMT := smtRes.IPC / 2
	if perThreadSMT >= soloRes.IPC {
		t.Errorf("SMT per-thread IPC %.4f >= solo %.4f; expected contention", perThreadSMT, soloRes.IPC)
	}
	// Memory-bound identical pairs can interfere destructively, but the
	// combined throughput must stay in a sane band of the solo run.
	if smtRes.IPC < 0.6*soloRes.IPC {
		t.Errorf("SMT total IPC %.4f implausibly low vs solo %.4f", smtRes.IPC, soloRes.IPC)
	}
}

func TestRunWarmupResetsStats(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	m, _ := NewMachine(testConfig())
	res, _ := m.RunWarmup([]workload.Stream{spec.NewStream()}, 30000, 30000)
	if got := res.Stats.TotalInstructions(); got != 30000 {
		t.Errorf("measured instructions = %d, want 30000 (warmup excluded)", got)
	}
	if res.Stats.Cycles == 0 {
		t.Error("cycles not measured")
	}
}

func TestWarmupImprovesMeasuredHitRates(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	cold, _ := NewMachine(testConfig())
	coldRes, _ := cold.Run([]workload.Stream{spec.NewStream()}, 50000)

	warm, _ := NewMachine(testConfig())
	warmRes, _ := warm.RunWarmup([]workload.Stream{spec.NewStream()}, 50000, 50000)

	if warmRes.Stats.STLB.HitRate() < coldRes.Stats.STLB.HitRate() {
		t.Errorf("warmed STLB hit rate %.3f < cold %.3f", warmRes.Stats.STLB.HitRate(), coldRes.Stats.STLB.HitRate())
	}
}

func TestITPReducesInstrSTLBMisses(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	run := func(pol string) float64 {
		cfg := testConfig()
		cfg.STLBPolicy = pol
		m, _ := NewMachine(cfg)
		res, _ := m.RunWarmup([]workload.Stream{spec.NewStream()}, 200000, 400000)
		ti := res.Stats.TotalInstructions()
		return float64(res.Stats.STLB.Misses[1]) / float64(ti) * 1000 // BInstr bucket
	}
	lru := run("lru")
	itp := run("itp")
	if itp >= lru {
		t.Errorf("iTP iMPKI %.3f >= LRU %.3f; iTP must protect instruction translations", itp, lru)
	}
}

func TestXPTPIncreasesL2CPTEOccupancy(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	occupancy := func(l2c string) int {
		cfg := testConfig()
		cfg.STLBPolicy = "itp"
		cfg.L2CPolicy = l2c
		m, _ := NewMachine(cfg)
		m.RunWarmup([]workload.Stream{spec.NewStream()}, 200000, 400000)
		_, _, dataPTE := m.L2COccupancy()
		return dataPTE
	}
	if lru, xptp := occupancy("lru"), occupancy("xptp-static"); xptp <= lru {
		t.Errorf("xPTP data-PTE occupancy %d <= LRU %d", xptp, lru)
	}
}

// TestSplitCHiRPHalvesObserveControlFlow: with a split STLB under CHiRP,
// both halves fold the taken-branch history into the signature they
// stamp on a fill. A half that never observes control flow signs every
// fill as a fresh CHiRP would, from the VPN alone; after 50k instructions
// of a server workload each half must hold entries signed otherwise.
func TestSplitCHiRPHalvesObserveControlFlow(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, err := cat.Get("srv_000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.SplitSTLB = true
	cfg.STLBPolicy = "chirp"
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{spec.NewStream()}, 50_000); err != nil {
		t.Fatal(err)
	}
	// noHistory signs e's fill the way a CHiRP that never observed a
	// branch would.
	noHistory := func(e *tlb.Entry) uint16 {
		set := &tlb.Set{Entries: make([]tlb.Entry, cfg.STLB.Ways), Stack: make([]uint8, cfg.STLB.Ways)}
		replacement.InitStack(set.Stack)
		tlb.NewCHiRP(cfg.STLB.Ways).OnFill(0, set, 0, &tlb.Request{VPN: e.VPN, Thread: e.Thread})
		return set.Entries[0].Sig
	}
	var entries, signed [2]int
	for _, half := range m.stlbHalves() {
		half.VisitEntries(func(e *tlb.Entry) {
			entries[e.Class]++
			if e.Sig != noHistory(e) {
				signed[e.Class]++
			}
		})
	}
	for c, name := range []string{"instruction", "data"} {
		if entries[c] == 0 || signed[c] == 0 {
			t.Errorf("%s half: %d of %d entries signed with control-flow history", name, signed[c], entries[c])
		}
	}
}

// TestReleaseReturnsEveryStructure: Machine.Release hands back the
// storage of everything the machine built, so afterwards every cache,
// every TLB (both halves of a split STLB), the stride prefetcher and
// every tenant's page table panics on use.
func TestReleaseReturnsEveryStructure(t *testing.T) {
	for _, split := range []bool{false, true} {
		cfg := testConfig()
		cfg.SplitSTLB = split
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run([]workload.Stream{loopStream(64, 4)}, 1000); err != nil {
			t.Fatal(err)
		}
		m.Release()
		m.Release() // idempotent
		c := m.cores[0]
		acc := &arch.Access{Addr: 0x1000, Kind: arch.Load}
		uses := []struct {
			name string
			use  func()
		}{
			{"L1I", func() { c.l1i.Access(0, acc) }},
			{"L1D", func() { c.l1d.Access(0, acc) }},
			{"L2C", func() { m.l2c.Access(0, acc) }},
			{"LLC", func() { m.llc.Access(0, acc) }},
			{"ITLB", func() { c.itlb.Lookup(0x1000, 0, arch.InstrClass, 0) }},
			{"DTLB", func() { c.dtlb.Lookup(0x1000, 0, arch.DataClass, 0) }},
			{"STLB instruction side", func() { m.stlb[arch.InstrClass].Lookup(0x1000, 0, arch.InstrClass, 0) }},
			{"STLB data side", func() { m.stlb[arch.DataClass].Lookup(0x1000, 0, arch.DataClass, 0) }},
			{"stride prefetcher", func() { m.l2cStride.Train(acc) }},
		}
		for i, pt := range m.pts {
			uses = append(uses, struct {
				name string
				use  func()
			}{fmt.Sprintf("tenant %d page table", i), func() { pt.Translate(0x1000) }})
		}
		for _, u := range uses {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("split STLB %v: %s still usable after Release", split, u.name)
					}
				}()
				u.use()
			}()
		}
	}
}

func TestSplitSTLBRuns(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	cfg := testConfig()
	cfg.SplitSTLB = true
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if halves := m.stlbHalves(); len(halves) != 2 {
		t.Errorf("split STLB built as %d structure(s)", len(halves))
	}
	res, _ := m.Run([]workload.Stream{spec.NewStream()}, 30000)
	if res.IPC <= 0 {
		t.Error("split STLB run failed")
	}
}

// TestSplitSTLBHalvesHoldTheirClass: after a run of a server workload on
// a split STLB, each half holds entries, every one of its own
// translation class.
func TestSplitSTLBHalvesHoldTheirClass(t *testing.T) {
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
	for _, class := range []arch.Class{arch.InstrClass, arch.DataClass} {
		half := m.stlb[class]
		entries := 0
		half.VisitEntries(func(e *tlb.Entry) {
			entries++
			if e.Class != class {
				t.Errorf("%s holds a %s entry for vpn %#x", half.Name(), e.Class, e.VPN)
			}
		})
		if entries == 0 {
			t.Errorf("%s holds no entries", half.Name())
		}
	}
}

func TestHugePagesReduceWalks(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	walks := func(frac float64) uint64 {
		cfg := testConfig()
		cfg.HugePageFraction = frac
		m, _ := NewMachine(cfg)
		res, _ := m.Run([]workload.Stream{spec.NewStream()}, 100000)
		return res.Stats.PageWalks[0] + res.Stats.PageWalks[1]
	}
	if w0, w100 := walks(0), walks(1.0); w100 >= w0 {
		t.Errorf("2MB pages should reduce walks: 4KB=%d, 2MB=%d", w0, w100)
	}
}

func TestHugePagesImproveIPC(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_003")

	ipc := func(frac float64) float64 {
		cfg := testConfig()
		cfg.HugePageFraction = frac
		m, _ := NewMachine(cfg)
		res, _ := m.RunWarmup([]workload.Stream{spec.NewStream()}, 100000, 200000)
		return res.IPC
	}
	if i0, i100 := ipc(0), ipc(1.0); i100 <= i0 {
		t.Errorf("full 2MB backing should improve IPC: %.4f vs %.4f", i100, i0)
	}
}

func TestControllerWiredThroughMachine(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	cfg := testConfig()
	cfg.L2CPolicy = "xptp"
	m, _ := NewMachine(cfg)
	if m.Controller() == nil {
		t.Fatal("xptp should create the adaptive controller")
	}
	res, _ := m.Run([]workload.Stream{spec.NewStream()}, 100000)
	if res.Stats.XPTPEnabledWindows+res.Stats.XPTPDisabledWindows == 0 {
		t.Error("controller windows not recorded")
	}
}

func TestBiggerITLBReducesInstrTransCycles(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	frac := func(entries int) float64 {
		cfg := testConfig().WithITLBEntries(entries)
		m, _ := NewMachine(cfg)
		res, _ := m.RunWarmup([]workload.Stream{spec.NewStream()}, 100000, 200000)
		return res.Stats.InstrTransFraction()
	}
	if small, big := frac(64), frac(1024); big >= small {
		t.Errorf("1024-entry ITLB should cut instruction translation overhead: %.4f vs %.4f", big, small)
	}
}

func TestFDIPReducesL1IMisses(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	l1iMPKI := func(fdip bool) float64 {
		cfg := testConfig()
		cfg.L1IFDIP = fdip
		m, _ := NewMachine(cfg)
		res, _ := m.RunWarmup([]workload.Stream{spec.NewStream()}, 100000, 200000)
		return res.Stats.L1I.MPKI(res.Stats.TotalInstructions())
	}
	if off, on := l1iMPKI(false), l1iMPKI(true); on >= off {
		t.Errorf("FDIP should reduce L1I MPKI: on=%.3f off=%.3f", on, off)
	}
}

func TestLookaheadBuffer(t *testing.T) {
	instrs := make([]workload.Instr, 50)
	for i := range instrs {
		instrs[i].PC = arch.Addr(i)
	}
	la := newLookahead(&workload.Replay{Instrs: instrs}, 16)
	if got := la.peek(0); got == nil || got.PC != 0 {
		t.Fatal("peek(0) wrong")
	}
	if got := la.peek(10); got == nil || got.PC != 10 {
		t.Fatal("peek(10) wrong")
	}
	var in workload.Instr
	for i := 0; i < 50; i++ {
		if !la.pop(&in) || in.PC != arch.Addr(i) {
			t.Fatalf("pop %d wrong: %+v", i, in)
		}
	}
	if la.pop(&in) {
		t.Error("exhausted lookahead should return false")
	}
	if la.peek(0) != nil {
		t.Error("peek past end should be nil")
	}
}

func TestSTLBPrefetchExtension(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")

	run := func(enable bool) *Machine {
		cfg := testConfig()
		cfg.STLBPrefetch = enable
		m, _ := NewMachine(cfg)
		m.RunWarmup([]workload.Stream{spec.NewStream()}, 100000, 200000)
		return m
	}
	off := run(false)
	on := run(true)
	if on.Stats.STLBPrefetches == 0 {
		t.Fatal("extension enabled but no prefetches issued")
	}
	if off.Stats.STLBPrefetches != 0 {
		t.Error("extension disabled but prefetches recorded")
	}
	// Sequential code-page prefetching should not increase instruction
	// STLB misses (it may reduce them).
	onMiss := on.Stats.STLB.Misses[stats.BInstr]
	offMiss := off.Stats.STLB.Misses[stats.BInstr]
	if float64(onMiss) > 1.05*float64(offMiss) {
		t.Errorf("prefetching raised instruction STLB misses: %d vs %d", onMiss, offMiss)
	}
}

func TestPerceptronPredictorOption(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	for _, bp := range []string{"fixed", "perceptron"} {
		cfg := testConfig()
		cfg.BranchPredictor = bp
		m, err := NewMachine(cfg)
		if err != nil {
			t.Fatalf("%s: %v", bp, err)
		}
		res, _ := m.Run([]workload.Stream{spec.NewStream()}, 30000)
		if res.IPC <= 0 {
			t.Errorf("%s: no progress", bp)
		}
	}
	cfg := testConfig()
	cfg.BranchPredictor = "oracle"
	if _, err := NewMachine(cfg); err == nil {
		t.Error("unknown predictor should be rejected")
	}
}

func TestSTLBMSHRMergesConcurrentWalks(t *testing.T) {
	m, _ := NewMachine(testConfig())
	// Two independent (non-dependent) loads to the same cold page in
	// back-to-back instructions: the second must merge into the first
	// walk rather than starting its own.
	instrs := []workload.Instr{
		{PC: 0x400000, LoadAddr: 0x7000000000},
		{PC: 0x400004, LoadAddr: 0x7000000100},
	}
	res, _ := m.Run([]workload.Stream{&workload.Replay{Instrs: instrs}}, 2)
	if got := res.Stats.PageWalks[arch.DataClass]; got != 1 {
		t.Errorf("data walks = %d, want 1 (second miss merges)", got)
	}
	// Both accesses still count as STLB misses.
	if got := res.Stats.STLB.TotalMisses(); got != 2 {
		t.Errorf("STLB misses = %d, want 2", got)
	}
}

func TestSMTRunIsDeterministic(t *testing.T) {
	cat := workload.NewCatalog(4, 2)
	a, _ := cat.Get("srv_000")
	b, _ := cat.Get("srv_001")
	var cycles [2]uint64
	for i := range cycles {
		m, _ := NewMachine(testConfig())
		res, _ := m.Run([]workload.Stream{a.NewStream(), b.NewStream()}, 30000)
		cycles[i] = uint64(res.Stats.Cycles)
	}
	if cycles[0] != cycles[1] {
		t.Errorf("SMT runs diverged: %d vs %d", cycles[0], cycles[1])
	}
}

func TestHugePagesReachSTLBEntries(t *testing.T) {
	cfg := testConfig()
	cfg.HugePageFraction = 1.0
	m, _ := NewMachine(cfg)
	cat := workload.NewCatalog(4, 2)
	spec, _ := cat.Get("srv_000")
	m.Run([]workload.Stream{spec.NewStream()}, 50000)
	// With full 2MB backing the page walks must be 4-step (level-2 leaf),
	// observable as dramatically fewer distinct translations: the STLB
	// should be far from full.
	i, d := m.STLBOccupancy()
	if i+d == 0 {
		t.Fatal("no STLB entries at all")
	}
	if i+d > 1000 {
		t.Errorf("2MB backing should shrink the translation working set, got %d entries", i+d)
	}
}
