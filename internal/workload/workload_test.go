package workload

import (
	"testing"
	"unsafe"

	"itpsim/internal/arch"
)

// TestInstrSize pins an instruction at 32 bytes: three addresses, then
// the three flags in the padding after them. Decode batches, lookahead
// rings and functional-warmup buffers hold thousands of them.
func TestInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n != 32 {
		t.Fatalf("workload.Instr is %d bytes, want 32", n)
	}
}

func defaultServer() ServerParams {
	return ServerParams{
		Seed:          1,
		HeadCodePages: 48,
		WarmCodePages: 768,
		ColdCodePages: 3072,
		WarmCodeFrac:  0.03,
		ColdCodeFrac:  0.003,
		CodeBurstLen:  12,
		CodeZipf:      1.2,
		FuncBytes:     256,
		HotDataPages:  384,
		HotDataZipf:   1.15,
		WarmDataPages: 8192,
		WarmFrac:      0.02,
		ColdDataPages: 32768,
		ColdFrac:      0.003,
		LoadFrac:      0.25,
		StoreFrac:     0.10,
		DepFrac:       0.20,
		ChaseRate:     0.0015,
		ChaseLen:      8,
		StreamFrac:    0.05,
		StackFrac:     0.30,
		ReuseFrac:     0.30,
	}
}

func defaultSpec() SpecParams {
	return SpecParams{
		Seed: 1, CodePages: 8, LoopLen: 64, LoopIters: 100,
		DataPages: 2048, DataZipf: 1.3,
		LoadFrac: 0.28, StoreFrac: 0.1, DepFrac: 0.15,
		StreamFrac: 0.25, ReuseFrac: 0.35,
	}
}

func (p ServerParams) totalCodePages() int {
	return p.HeadCodePages + p.WarmCodePages + p.ColdCodePages
}

func TestServerDeterminism(t *testing.T) {
	a := NewServer(defaultServer())
	b := NewServer(defaultServer())
	var ia, ib Instr
	for i := 0; i < 10000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("streams diverged at instruction %d: %+v vs %+v", i, ia, ib)
		}
	}
}

func TestServerCodeFootprint(t *testing.T) {
	p := defaultServer()
	s := NewServer(p)
	var in Instr
	pages := map[arch.Addr]bool{}
	for i := 0; i < 500000; i++ {
		s.Next(&in)
		pages[arch.PageNumber4K(in.PC)] = true
	}
	// The three-tier footprint must put far more pages in play than any
	// ITLB holds...
	if len(pages) < 300 {
		t.Errorf("code touched only %d pages; want a big-code profile", len(pages))
	}
	// ... but never exceed the declared footprint.
	maxPages := p.totalCodePages() + 1
	if len(pages) > maxPages {
		t.Errorf("code touched %d pages, exceeding the declared footprint %d", len(pages), maxPages)
	}
}

func TestServerAddressRegionsDisjoint(t *testing.T) {
	s := NewServer(defaultServer())
	var in Instr
	for i := 0; i < 100000; i++ {
		s.Next(&in)
		if in.PC < codeBase || in.PC >= heapBase {
			t.Fatalf("PC %#x outside code region", in.PC)
		}
		for _, a := range [2]arch.Addr{in.LoadAddr, in.StoreAddr} {
			if a == 0 {
				continue
			}
			if a >= codeBase && a < heapBase {
				t.Fatalf("data access %#x inside code region", a)
			}
		}
	}
}

func TestServerMemoryMix(t *testing.T) {
	s := NewServer(defaultServer())
	var in Instr
	loads, stores := 0, 0
	const n = 200000
	for i := 0; i < n; i++ {
		s.Next(&in)
		if in.LoadAddr != 0 {
			loads++
		}
		if in.StoreAddr != 0 {
			stores++
		}
	}
	lf, sf := float64(loads)/n, float64(stores)/n
	// Chase episodes add loads on top of LoadFrac.
	if lf < 0.22 || lf > 0.34 {
		t.Errorf("load fraction = %.3f, want ~0.25-0.30", lf)
	}
	if sf < 0.07 || sf > 0.12 {
		t.Errorf("store fraction = %.3f, want ~0.10", sf)
	}
}

func TestServerChasesAreDependent(t *testing.T) {
	p := defaultServer()
	p.ChaseRate = 0.01 // frequent chases for the test
	s := NewServer(p)
	var in Instr
	depLoads, runLen, maxRun := 0, 0, 0
	for i := 0; i < 100000; i++ {
		s.Next(&in)
		if in.LoadAddr != 0 && in.DepLoad {
			depLoads++
			runLen++
			if runLen > maxRun {
				maxRun = runLen
			}
		} else {
			runLen = 0
		}
	}
	if depLoads == 0 {
		t.Fatal("no dependent loads generated")
	}
	if maxRun < 4 {
		t.Errorf("longest dependent-load run = %d, want >= 4 (chase episodes)", maxRun)
	}
}

func TestServerChaseTargetsVastTier(t *testing.T) {
	p := defaultServer()
	p.ChaseRate = 0.01
	s := NewServer(p)
	var in Instr
	vastStart := arch.Addr(p.HotDataPages+p.WarmDataPages) * arch.PageSize4K
	vastEnd := vastStart + arch.Addr(p.ColdDataPages)*arch.PageSize4K
	vast := 0
	total := 0
	for i := 0; i < 100000; i++ {
		s.Next(&in)
		if in.LoadAddr != 0 && in.DepLoad {
			total++
			off := in.LoadAddr - heapBase
			if off >= vastStart && off < vastEnd {
				vast++
			}
		}
	}
	if total == 0 || float64(vast)/float64(total) < 0.5 {
		t.Errorf("chase loads in vast tier: %d/%d, want majority", vast, total)
	}
}

func TestServerBranchesPresent(t *testing.T) {
	s := NewServer(defaultServer())
	var in Instr
	branches := 0
	const n = 100000
	for i := 0; i < n; i++ {
		s.Next(&in)
		if in.IsBranch {
			branches++
		}
	}
	if branches < n/20 || branches > n/3 {
		t.Errorf("branch fraction = %.3f, implausible", float64(branches)/n)
	}
}

func TestSpecCodeFitsITLB(t *testing.T) {
	p := defaultSpec()
	s := NewSpec(p)
	var in Instr
	pages := map[arch.Addr]bool{}
	for i := 0; i < 300000; i++ {
		s.Next(&in)
		pages[arch.PageNumber4K(in.PC)] = true
	}
	if len(pages) > p.CodePages+1 {
		t.Errorf("spec code touched %d pages, want <= %d", len(pages), p.CodePages+1)
	}
	if len(pages) > 64 {
		t.Error("spec code must fit a 64-entry ITLB")
	}
}

func TestSpecDeterminism(t *testing.T) {
	a, b := NewSpec(defaultSpec()), NewSpec(defaultSpec())
	var ia, ib Instr
	for i := 0; i < 10000; i++ {
		a.Next(&ia)
		b.Next(&ib)
		if ia != ib {
			t.Fatalf("spec streams diverged at %d", i)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := newZipf(10000, 0.9)
	r := newRNG(7)
	counts := make([]int, 10000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.sample(r)]++
	}
	if counts[0] < 10*counts[5000]+1 {
		t.Errorf("Zipf not skewed: rank0=%d rank5000=%d", counts[0], counts[5000])
	}
	tail := 0
	for _, c := range counts[5000:] {
		if c > 0 {
			tail++
		}
	}
	if tail < 100 {
		t.Errorf("Zipf tail unexercised: %d of 5000 tail ranks seen", tail)
	}
}

func TestZipfBounds(t *testing.T) {
	for _, s := range []float64{0.3, 0.7, 1.0, 1.3} {
		z := newZipf(100, s)
		r := newRNG(3)
		for i := 0; i < 10000; i++ {
			k := z.sample(r)
			if k < 0 || k >= 100 {
				t.Fatalf("s=%v: sample %d out of range", s, k)
			}
		}
	}
}

func TestLimit(t *testing.T) {
	s := Limit(NewSpec(defaultSpec()), 100)
	var in Instr
	n := 0
	for s.Next(&in) {
		n++
	}
	if n != 100 {
		t.Errorf("Limit yielded %d instructions, want 100", n)
	}
}

func TestReplay(t *testing.T) {
	orig := []Instr{{PC: 1}, {PC: 2, IsBranch: true}, {PC: 3, LoadAddr: 0x99}}
	r := &Replay{Instrs: orig}
	var in Instr
	for i := range orig {
		if !r.Next(&in) || in != orig[i] {
			t.Fatalf("replay wrong at %d", i)
		}
	}
	if r.Next(&in) {
		t.Error("replay should end")
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog(120, 20)
	if got := len(c.ServerNames()); got != 120 {
		t.Errorf("server workloads = %d, want 120", got)
	}
	if got := len(c.SpecNames()); got != 20 {
		t.Errorf("spec workloads = %d, want 20", got)
	}
	s, err := c.Get("srv_000")
	if err != nil || s.Kind != "server" {
		t.Fatalf("Get(srv_000) = %+v, %v", s, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("unknown workload should error")
	}
	var a, b Instr
	sa, _ := c.Get("srv_001")
	sb, _ := c.Get("srv_001")
	streamA, streamB := sa.NewStream(), sb.NewStream()
	for i := 0; i < 1000; i++ {
		streamA.Next(&a)
		streamB.Next(&b)
		if a != b {
			t.Fatal("catalogue streams not deterministic")
		}
	}
}

// TestCatalogCodeBelowPCLimit: every catalog footprint's code region,
// from codeBase to the end of its last function (server) or of its
// highest loop (spec), ends below arch.PCLimit, so every PC a generator
// emits fits a cache line's 32 bits. 120 workloads of each kind cover
// every parameter combination of the grid. A short run of each stays
// inside its region, which ties the computed end to the generator.
func TestCatalogCodeBelowPCLimit(t *testing.T) {
	c := NewCatalog(120, 120)
	var largest arch.Addr
	for _, name := range c.Names() {
		sp, err := c.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		stream := sp.NewStream()
		var end arch.Addr
		switch g := stream.(type) {
		case *server:
			// The last function starts at funcPC(n-1) and runs at most
			// instrPerF instructions, or 15 as a burst helper.
			last := g.headFuncs + g.warmFuncs + g.coldFuncs - 1
			end = g.funcPC(last) + arch.Addr(max(g.instrPerF, 15))*4
		case *spec:
			// A loop starts below codeBase+maxStart (pickLoop).
			loop := g.p.LoopLen * 4
			end = codeBase + arch.Addr(max(g.p.CodePages*arch.PageSize4K-loop, 1)+loop)
		default:
			t.Fatalf("%s: unexpected generator %T", name, stream)
		}
		if end > arch.PCLimit {
			t.Errorf("%s: code ends at %#x, above arch.PCLimit", name, end)
		}
		largest = max(largest, end)
		var in Instr
		for i := 0; i < 10_000; i++ {
			stream.Next(&in)
			if in.PC < codeBase || in.PC >= end {
				t.Fatalf("%s: instruction %d has PC %#x outside [%#x, %#x)", name, i, in.PC, codeBase, end)
			}
		}
	}
	t.Logf("the largest code region ends at %#x, %.1f MB", largest, float64(largest)/(1<<20))
}

func TestCatalogParamsVary(t *testing.T) {
	c := NewCatalog(12, 0)
	seen := map[int]bool{}
	for _, n := range c.ServerNames() {
		s, _ := c.Get(n)
		seen[s.ServerParams().ColdCodePages] = true
	}
	if len(seen) < 3 {
		t.Errorf("parameter grid too uniform: %d distinct code sizes", len(seen))
	}
}

func TestSMTPairs(t *testing.T) {
	c := NewCatalog(40, 10)
	pairs := c.SMTPairs(5)
	cats := map[string]int{}
	for _, p := range pairs {
		cats[p.Category]++
		if _, err := c.Get(p.A); err != nil {
			t.Errorf("pair %s references unknown workload %s", p.Name, p.A)
		}
		if _, err := c.Get(p.B); err != nil {
			t.Errorf("pair %s references unknown workload %s", p.Name, p.B)
		}
	}
	for _, cat := range []string{"intense", "medium", "relaxed"} {
		if cats[cat] != 5 {
			t.Errorf("category %s has %d pairs, want 5", cat, cats[cat])
		}
	}
}

func TestValidateFracs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad fractions")
		}
	}()
	validateFracs("x", 0.9, 0.5)
}

func TestChaseSegmentDisabledCoversWholeTier(t *testing.T) {
	p := defaultServer()
	p.ChaseRate = 0.02
	p.ChaseSegPages = 0 // roam the whole vast tier (skewed, stationary)
	p.ChaseSegInstr = 0
	s := NewServer(p)
	var in Instr
	pages := map[arch.Addr]bool{}
	vastStart := arch.Addr(p.HotDataPages + p.WarmDataPages)
	for i := 0; i < 400000; i++ {
		s.Next(&in)
		if in.LoadAddr != 0 && in.DepLoad {
			page := arch.PageNumber4K(in.LoadAddr - heapBase)
			if page >= vastStart {
				pages[page] = true
			}
		}
	}
	// The Zipf head concentrates accesses but the roam must still cover
	// far more pages than any TLB holds.
	if len(pages) < 2000 {
		t.Errorf("chase roam covered only %d vast pages", len(pages))
	}
}

func TestChaseSegmentSlides(t *testing.T) {
	p := defaultServer()
	p.ChaseRate = 0.02
	p.ChaseSegPages = 256
	p.ChaseSegInstr = 50000
	s := NewServer(p)
	var in Instr
	// Record which vast pages each window of 50k instructions touches.
	window := map[arch.Addr]bool{}
	var firstWindow map[arch.Addr]bool
	for i := 0; i < 200000; i++ {
		s.Next(&in)
		if i == 50000 {
			firstWindow = window
			window = map[arch.Addr]bool{}
		}
		if in.LoadAddr != 0 && in.DepLoad {
			window[arch.PageNumber4K(in.LoadAddr-heapBase)] = true
		}
	}
	if firstWindow == nil || len(firstWindow) == 0 || len(window) == 0 {
		t.Skip("not enough chase traffic to compare windows")
	}
	overlap := 0
	for pg := range window {
		if firstWindow[pg] {
			overlap++
		}
	}
	// Sliding segments mean later windows touch mostly different pages.
	if float64(overlap) > 0.5*float64(len(window)) {
		t.Errorf("segments did not slide: %d/%d pages overlap", overlap, len(window))
	}
}
