package sim

import (
	"runtime"
	"runtime/debug"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/workload"
)

// run executes a replay of instrs on a fresh machine and returns cycles.
func runCycles(t *testing.T, cfg config.SystemConfig, instrs []workload.Instr) uint64 {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := m.Run([]workload.Stream{&workload.Replay{Instrs: instrs}}, uint64(len(instrs)))
	return uint64(res.Stats.Cycles)
}

// straightline builds n instructions in one code page with no memory ops.
func straightline(n int, branchEvery int, taken bool) []workload.Instr {
	instrs := make([]workload.Instr, n)
	for i := range instrs {
		instrs[i].PC = 0x400000 + arch.Addr((i%256)*4)
		if branchEvery > 0 && i%branchEvery == branchEvery-1 {
			instrs[i].IsBranch = true
			instrs[i].Taken = taken
		}
	}
	return instrs
}

func TestFetchWidthBoundsIPC(t *testing.T) {
	cfg := config.Default()
	cfg.BranchPredAccuracy = 1.0 // no mispredicts
	cycles := runCycles(t, cfg, straightline(60000, 0, false))
	ipc := 60000.0 / float64(cycles)
	// Perfect straight-line code: IPC should approach the fetch width
	// and never exceed it.
	if ipc > float64(cfg.FetchWidth) {
		t.Errorf("IPC %.2f exceeds fetch width %d", ipc, cfg.FetchWidth)
	}
	if ipc < 2.0 {
		t.Errorf("straight-line IPC %.2f implausibly low", ipc)
	}
}

func TestMispredictsCostCycles(t *testing.T) {
	mk := func(acc float64) uint64 {
		cfg := config.Default()
		cfg.BranchPredAccuracy = acc
		return runCycles(t, cfg, straightline(60000, 8, true))
	}
	perfect := mk(1.0)
	poor := mk(0.5)
	if poor <= perfect {
		t.Errorf("mispredicts should cost cycles: perfect=%d poor=%d", perfect, poor)
	}
	// 12.5% branches at 50% accuracy: thousands of redirects.
	if poor < perfect+uint64(0.04*float64(perfect)) {
		t.Errorf("mispredict cost too small: perfect=%d poor=%d", perfect, poor)
	}
}

func TestDependentLoadsSerialise(t *testing.T) {
	mk := func(dep bool) uint64 {
		instrs := make([]workload.Instr, 20000)
		for i := range instrs {
			instrs[i].PC = 0x400000 + arch.Addr((i%64)*4)
			// Loads to distinct cold pages: slow.
			instrs[i].LoadAddr = 0x10000000000 + arch.Addr(i)*arch.PageSize4K
			instrs[i].DepLoad = dep
		}
		return runCycles(t, config.Default(), instrs)
	}
	indep := mk(false)
	chained := mk(true)
	if chained <= indep {
		t.Errorf("pointer chains must serialise: independent=%d chained=%d", indep, chained)
	}
	// Walker occupancy already serialises much of the independent case
	// (4 concurrent walks), so the chain adds a moderate but real cost.
	if float64(chained) < 1.1*float64(indep) {
		t.Errorf("chaining effect too weak: independent=%d chained=%d", indep, chained)
	}
}

func TestROBLimitsMemoryParallelism(t *testing.T) {
	mk := func(rob int) uint64 {
		cfg := config.Default()
		cfg.ROBSize = rob
		// Keep the memory system unloaded so the ROB window is the only
		// thing deciding how many misses overlap.
		cfg.L1DNextLine = false
		cfg.L2CStride = false
		instrs := make([]workload.Instr, 20000)
		for i := range instrs {
			instrs[i].PC = 0x400000 + arch.Addr((i%64)*4)
			if i%16 == 0 {
				// DRAM-bound loads with warm translations (64 pages fit
				// the DTLB): a 352-entry ROB overlaps ~22 of them, a
				// 16-entry ROB at most one.
				page := arch.Addr(i % 64)
				block := arch.Addr(i) // distinct block per load
				instrs[i].LoadAddr = 0x10000000000 + page<<30 + block<<arch.BlockBits
			}
		}
		return runCycles(t, cfg, instrs)
	}
	big := mk(352)
	small := mk(16)
	if small <= big {
		t.Errorf("a tiny ROB should hurt: rob352=%d rob16=%d", big, small)
	}
}

func TestFTQDepthGatesFrontendRunahead(t *testing.T) {
	// With a deep FTQ, instruction-side stalls overlap a slow backend; a
	// depth-1 FTQ exposes them.
	mk := func(depth int) uint64 {
		cfg := config.Default()
		cfg.FTQDepth = depth
		instrs := make([]workload.Instr, 30000)
		for i := range instrs {
			// New code page every 16 instructions: ITLB pressure.
			instrs[i].PC = 0x400000 + arch.Addr(i/16)*arch.PageSize4K + arch.Addr((i%16)*4)
			if i%3 == 0 {
				instrs[i].LoadAddr = 0x10000000000 + arch.Addr(i%4096)*arch.PageSize4K
			}
		}
		return runCycles(t, cfg, instrs)
	}
	deep := mk(128)
	shallow := mk(1)
	if shallow <= deep {
		t.Errorf("shallow FTQ should expose frontend stalls: deep=%d shallow=%d", deep, shallow)
	}
}

// TestMispredictRefetchesBlockZero is the regression test for the
// mispredict-redirect sentinel: the old code forced a refetch by setting
// fetchBlock to address 0, which is itself a valid block address, so a
// redirect whose target lived in block 0 silently skipped the instruction
// fetch. With code placed entirely in block 0 and every branch
// mispredicting, each redirect must re-access the L1I.
func TestMispredictRefetchesBlockZero(t *testing.T) {
	const n = 4000
	instrs := make([]workload.Instr, n)
	for i := range instrs {
		instrs[i].PC = arch.Addr((i % 16) * 4) // all PCs inside block 0
		instrs[i].IsBranch = true
		instrs[i].Taken = true
	}
	cfg := config.Default()
	cfg.BranchPredAccuracy = 0 // every branch mispredicts, deterministically
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{&workload.Replay{Instrs: instrs}}, n); err != nil {
		t.Fatal(err)
	}
	accesses := m.Stats.L1I.TotalHits() + m.Stats.L1I.TotalMisses()
	// Every mispredict redirects fetch back into block 0, so the L1I must
	// see on the order of one access per instruction. Under the sentinel
	// bug it saw none at all.
	if accesses < n/2 {
		t.Errorf("block-0 code with all-mispredicted branches made only %d L1I accesses, want >= %d",
			accesses, n/2)
	}
}

// TestFirstFetchInBlockZero checks the initial-fetch corner of the same
// sentinel bug: a trace that begins in block 0 must still fetch its first
// block (the old code's zero-initialised fetchBlock matched it and never
// touched the L1I).
func TestFirstFetchInBlockZero(t *testing.T) {
	instrs := make([]workload.Instr, 100)
	for i := range instrs {
		instrs[i].PC = arch.Addr((i % 16) * 4)
	}
	m, err := NewMachine(config.Default())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]workload.Stream{&workload.Replay{Instrs: instrs}}, 100); err != nil {
		t.Fatal(err)
	}
	if accesses := m.Stats.L1I.TotalHits() + m.Stats.L1I.TotalMisses(); accesses == 0 {
		t.Error("straight-line code in block 0 never accessed the L1I")
	}
}

// TestFDIPScanBudgetSizesLookahead checks the invariant newThreadCtx
// asserts: the lookahead ring is always large enough for one full FDIP
// scan (FDIPDistance blocks of blockInstrs instructions each), for
// distances well past the default.
func TestFDIPScanBudgetSizesLookahead(t *testing.T) {
	for _, dist := range []int{1, 24, 100} {
		cfg := config.Default()
		cfg.FDIPDistance = dist
		tc := newThreadCtx(nil, 0, &workload.Replay{}, &cfg, 1, 100, 0)
		if want := dist * blockInstrs; tc.scanBudget != want {
			t.Errorf("FDIPDistance=%d: scanBudget = %d, want %d", dist, tc.scanBudget, want)
		}
		if len(tc.la.buf) < tc.scanBudget {
			t.Errorf("FDIPDistance=%d: lookahead capacity %d < scan budget %d",
				dist, len(tc.la.buf), tc.scanBudget)
		}
	}
}

// TestRecycledTimeRingsStartZeroed: a thread built after another
// thread's release takes that thread's ROB and FTQ array, and finds both
// rings zeroed at their configured lengths, as a new array would be.
func TestRecycledTimeRingsStartZeroed(t *testing.T) {
	// No collection and one processor: a released array stays in this
	// processor's pool slot until the next thread takes it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := config.Default()
	reused := false
	// The race detector's sync.Pool drops a quarter of its Puts, so
	// retry until one release comes back.
	for try := 0; try < 20 && !reused; try++ {
		a := newThreadCtx(nil, 0, &workload.Replay{}, &cfg, 1, 100, 0)
		for i := range *a.times {
			(*a.times)[i] = uint64(i) + 1
		}
		times := a.times
		a.release()
		b := newThreadCtx(nil, 0, &workload.Replay{}, &cfg, 1, 100, 0)
		reused = b.times == times
		if len(b.robRing) != cfg.ROBSize || len(b.ftqRing) != cfg.FTQDepth {
			t.Fatalf("rings of %d and %d, want ROBSize %d and FTQDepth %d",
				len(b.robRing), len(b.ftqRing), cfg.ROBSize, cfg.FTQDepth)
		}
		for _, ring := range [][]uint64{b.robRing, b.ftqRing} {
			for i, v := range ring {
				if v != 0 {
					t.Fatalf("recycled ring slot %d holds %d", i, v)
				}
			}
		}
		b.release()
	}
	if !reused {
		t.Fatal("newThreadCtx never reused a released thread's rings")
	}
}

func TestStoresDoNotBlockRetire(t *testing.T) {
	// Stores to cold pages complete from the store buffer; a stream of
	// them should be far cheaper than the same stream of loads.
	mk := func(stores bool) uint64 {
		instrs := make([]workload.Instr, 20000)
		for i := range instrs {
			instrs[i].PC = 0x400000 + arch.Addr((i%64)*4)
			addr := arch.Addr(0x10000000000) + arch.Addr(i)*arch.PageSize4K
			if stores {
				instrs[i].StoreAddr = addr
			} else {
				instrs[i].LoadAddr = addr
				instrs[i].DepLoad = true
			}
		}
		return runCycles(t, config.Default(), instrs)
	}
	storeCycles := mk(true)
	loadCycles := mk(false)
	if storeCycles >= loadCycles {
		t.Errorf("stores must not serialise like dependent loads: stores=%d loads=%d",
			storeCycles, loadCycles)
	}
}
