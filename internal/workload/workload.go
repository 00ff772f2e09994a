// Package workload provides deterministic synthetic instruction streams
// standing in for the paper's proprietary trace sets:
//
//   - "server" workloads model the Qualcomm Server traces (CVP-1/IPC-1):
//     multi-megabyte instruction footprints traversed through a
//     Zipf-weighted function call graph — far beyond ITLB reach, so the
//     STLB sees heavy instruction pressure — plus a large-heap data mix
//     that keeps total STLB MPKI above 1 (the paper's selection
//     criterion).
//   - "spec" workloads model SPEC CPU 2006/2017: a loop nest over a code
//     footprint that fits comfortably in a 64-entry ITLB, with
//     data-dominated memory behaviour.
//
// Every generator is seeded and fully deterministic, so experiments are
// reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math"

	"itpsim/internal/arch"
)

// Instr is one instruction of a stream. A zero Load/Store address means
// the instruction has no memory operand of that kind (address 0 is
// reserved and never generated).
type Instr struct {
	PC        arch.Addr
	LoadAddr  arch.Addr
	StoreAddr arch.Addr
	IsBranch  bool
	Taken     bool
	// DepLoad marks a load whose address depends on the previous load's
	// result (pointer chasing); the core cannot issue it until that load
	// completes, which is what exposes memory and page-walk latency in
	// server workloads.
	DepLoad bool
}

// Stream produces instructions. Next fills in and returns true while the
// stream has more instructions; generators are infinite and the simulator
// enforces the instruction budget.
type Stream interface {
	Next(*Instr) bool
}

// Virtual-address layout shared by the generators. Regions are far apart
// so they never alias.
const (
	codeBase   arch.Addr = 0x0000_0000_0040_0000
	heapBase   arch.Addr = 0x0000_1000_0000_0000
	streamBase arch.Addr = 0x0000_2000_0000_0000
	stackBase  arch.Addr = 0x0000_7ffe_0000_0000
)

// rng is a splitmix64 generator: tiny, fast, deterministic.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x9e3779b97f4a7c15} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// zipf samples ranks 0..n-1 from an approximate power-law distribution
// P(rank k) ∝ (k+1)^-s using the continuous inverse-CDF; cheap enough to
// call per memory access.
type zipf struct {
	n     float64
	s     float64
	inv   float64 // 1/(1-s)
	scale float64 // n^(1-s) - 1
}

func newZipf(n int, s float64) *zipf {
	if s == 1 { // avoid the singularity; indistinguishable in practice
		s = 0.9999
	}
	z := &zipf{n: float64(n), s: s}
	z.inv = 1 / (1 - s)
	z.scale = math.Pow(z.n, 1-s) - 1
	return z
}

func (z *zipf) sample(r *rng) int {
	u := r.float()
	x := math.Pow(u*z.scale+1, z.inv) // in [1, n]
	k := int(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// ServerParams shape one synthetic server workload. The data side is a
// hot/cold mixture: most heap references go to a hot region sized between
// the L2C and the STLB's reach, while a small cold fraction sprays across
// a multi-hundred-MB footprint — that cold tail is what produces the
// paper's data STLB MPKI band (≈1–3) and the data page walks iTP trades
// against.
type ServerParams struct {
	Seed uint64
	// The instruction footprint is three-tiered, mirroring profiled
	// server binaries: a hot head (Zipf-skewed, ITLB-resident), a warm
	// band whose re-reference distance sits near STLB reach (the tier
	// instruction-aware replacement fights for), and a cold tail of
	// rarely revisited code. Sizes are in 4KB pages.
	HeadCodePages int
	WarmCodePages int
	ColdCodePages int
	// WarmCodeFrac/ColdCodeFrac are the per-call probabilities of
	// *starting a burst* of calls into the warm band or cold tail (a
	// request handler descending through a cold service path); the rest
	// hit the head. Bursts are what make instruction misses cluster and
	// defeat the decoupled front-end's run-ahead slack.
	WarmCodeFrac float64
	ColdCodeFrac float64
	// CodeBurstLen is the mean burst length in calls.
	CodeBurstLen int
	// CodeZipf is the popularity skew within the hot head.
	CodeZipf float64
	// FuncBytes is the average function size in bytes (instructions are
	// 4 bytes); functions are packed back to back across the footprint
	// in popularity order (a BOLT-style hot layout).
	FuncBytes int
	// HotDataPages/HotDataZipf describe the hot heap region (fits the
	// STLB and mostly the LLC).
	HotDataPages int
	HotDataZipf  float64
	// WarmDataPages is a uniformly accessed region whose reuse distance
	// sits near or beyond STLB reach — the capacity-pressure tier whose
	// page-table blocks xPTP keeps in the L2C. WarmFrac is the fraction
	// of heap accesses that go there.
	WarmDataPages int
	WarmFrac      float64
	// ColdDataPages extends the footprint with a vast tail (hundreds of
	// MB to GBs) whose accesses nearly always miss the STLB and whose
	// leaf-PTE working set exceeds the L2C — the regime where keeping
	// data PTEs cached (xPTP) decides whether a data page walk costs a
	// cache hit or a DRAM round trip. ColdFrac is the fraction of heap
	// accesses that go there; ColdZipf skews them (0 = uniform).
	ColdDataPages int
	ColdFrac      float64
	ColdZipf      float64
	// LoadFrac/StoreFrac are per-instruction memory-operand rates.
	LoadFrac, StoreFrac float64
	// DepFrac is the fraction of loads that are address-dependent on the
	// previous load (pointer chasing).
	DepFrac float64
	// ChaseRate starts a pointer-chase episode (hash-table or list walk
	// through the big heap) with this per-instruction probability; each
	// episode is ChaseLen consecutive dependent loads into the warm/vast
	// tiers. These chains are what expose data page-walk latency in
	// server workloads.
	ChaseRate float64
	ChaseLen  int
	// Chases traverse a request context: a ChaseSegPages-sized window of
	// the vast tier, Zipf-revisited (popular nodes reused across nearby
	// chases), that slides every ChaseSegInstr instructions. The revisits
	// give chase blocks and their PTEs L2C-distance reuse.
	ChaseSegPages int
	ChaseSegInstr uint64
	// StreamFrac is the fraction of data accesses that walk a sequential
	// array (prefetcher-friendly); StackFrac go to the hot call stack;
	// ReuseFrac re-touch a recently used address (short-range temporal
	// locality that keeps the L1D effective); the remainder hit the heap
	// mixture.
	StreamFrac, StackFrac, ReuseFrac float64
}

// reuseRing remembers recent data addresses for the temporal-locality
// component of the generators.
type reuseRing struct {
	buf  [64]arch.Addr
	n    int
	next int
}

func (rr *reuseRing) push(a arch.Addr) {
	rr.buf[rr.next] = a
	rr.next = (rr.next + 1) % len(rr.buf)
	if rr.n < len(rr.buf) {
		rr.n++
	}
}

func (rr *reuseRing) pick(r *rng) (arch.Addr, bool) {
	if rr.n == 0 {
		return 0, false
	}
	return rr.buf[r.intn(rr.n)], true
}

// server is the big-code workload generator.
type server struct {
	p     ServerParams
	r     *rng
	fZipf *zipf
	dZipf *zipf

	cZipf *zipf

	headFuncs int
	warmFuncs int
	coldFuncs int
	instrPerF int

	curFunc    int
	curInstr   int
	curFuncLen int
	callStack  []int
	streamPos  arch.Addr
	stackPtr   arch.Addr
	reuse      reuseRing
	chaseLeft  int

	codeBurstLeft int
	codeBurstCold bool

	segZipf    *zipf
	segStart   int
	segCounter uint64
	instrCount uint64
}

// NewServer builds a server workload stream.
func NewServer(p ServerParams) Stream {
	validateFracs("server", p.LoadFrac+p.StoreFrac)
	validateFracs("server", p.StreamFrac, p.StackFrac, p.ReuseFrac)
	validateFracs("server", p.ColdFrac, p.WarmFrac)
	validateFracs("server", p.WarmCodeFrac, p.ColdCodeFrac)
	instrPerF := p.FuncBytes / 4
	if instrPerF < 4 {
		instrPerF = 4
	}
	funcsPer := func(pages int) int {
		n := pages * arch.PageSize4K / p.FuncBytes
		if n < 4 {
			n = 4
		}
		return n
	}
	s := &server{
		p:         p,
		r:         newRNG(p.Seed),
		headFuncs: funcsPer(p.HeadCodePages),
		warmFuncs: funcsPer(p.WarmCodePages),
		coldFuncs: funcsPer(p.ColdCodePages),
		dZipf:     newZipf(p.HotDataPages, p.HotDataZipf),
		instrPerF: instrPerF,
		streamPos: streamBase,
		stackPtr:  stackBase,
		callStack: make([]int, 0, 64),
	}
	s.fZipf = newZipf(s.headFuncs, p.CodeZipf)
	if p.ColdZipf > 0 {
		s.cZipf = newZipf(p.ColdDataPages, p.ColdZipf)
	}
	s.curFunc = s.fZipf.sample(s.r)
	s.curFuncLen = s.instrPerF
	return s
}

// chaseAddr picks a pointer-chase target: mostly the current request
// context inside the vast tier (whose page walks miss the caches without
// xPTP), sometimes the warm tier.
func (s *server) chaseAddr() arch.Addr {
	var page int
	if s.r.float() < 0.8 {
		seg := s.p.ChaseSegPages
		if seg <= 0 || seg > s.p.ColdDataPages {
			seg = s.p.ColdDataPages
		}
		if s.segZipf == nil {
			// One-time lazy construction on the first chase.
			s.segZipf = newZipf(seg, 0.8)
			s.segStart = s.r.intn(s.p.ColdDataPages - seg + 1)
		}
		if s.p.ChaseSegInstr > 0 && s.instrCount-s.segCounter >= s.p.ChaseSegInstr {
			// A new request context arrives: slide the window.
			s.segStart = s.r.intn(s.p.ColdDataPages - seg + 1)
			s.segCounter = s.instrCount
		}
		page = s.p.HotDataPages + s.p.WarmDataPages + s.segStart + s.segZipf.sample(s.r)
	} else {
		page = s.p.HotDataPages + s.r.intn(s.p.WarmDataPages)
	}
	// Each page hosts one node whose header block is fixed: revisits to
	// the page touch the same cache block, so chase nodes have genuine
	// cache-level reuse even though each visit needs a translation.
	node := (uint64(page) * 0x9e3779b97f4a7c15 >> 52) << 8
	return heapBase + arch.Addr(page)*arch.PageSize4K + arch.Addr(node) + arch.Addr(s.r.intn(4)*8)
}

// nextFunc picks a call target from the three code tiers. Warm/cold
// targets come in bursts of consecutive calls.
func (s *server) nextFunc() int {
	if s.codeBurstLeft > 0 {
		s.codeBurstLeft--
		if s.codeBurstCold {
			return s.headFuncs + s.warmFuncs + s.r.intn(s.coldFuncs)
		}
		return s.headFuncs + s.r.intn(s.warmFuncs)
	}
	switch u := s.r.float(); {
	case u < s.p.ColdCodeFrac:
		s.codeBurstCold = true
		s.codeBurstLeft = s.burstLen()
		return s.headFuncs + s.warmFuncs + s.r.intn(s.coldFuncs)
	case u < s.p.ColdCodeFrac+s.p.WarmCodeFrac:
		s.codeBurstCold = false
		s.codeBurstLeft = s.burstLen()
		return s.headFuncs + s.r.intn(s.warmFuncs)
	default:
		return s.fZipf.sample(s.r)
	}
}

// burstLen draws the length of a warm/cold call burst.
func (s *server) burstLen() int {
	l := s.p.CodeBurstLen
	if l < 1 {
		l = 1
	}
	return l/2 + s.r.intn(l)
}

// funcPC returns the starting PC of function f. Functions are laid out in
// popularity order, so the Zipf rank order matches the address order.
func (s *server) funcPC(f int) arch.Addr {
	return codeBase + arch.Addr(f)*arch.Addr(s.p.FuncBytes)
}

func (s *server) dataAddr() arch.Addr {
	u := s.r.float()
	switch {
	case u < s.p.StackFrac:
		// Hot stack frame: a few cache blocks around the stack pointer.
		return s.stackPtr - arch.Addr(s.r.intn(256))
	case u < s.p.StackFrac+s.p.StreamFrac:
		// Streaming array: sequential blocks.
		s.streamPos += 8
		return s.streamPos
	case u < s.p.StackFrac+s.p.StreamFrac+s.p.ReuseFrac:
		if a, ok := s.reuse.pick(s.r); ok {
			return a
		}
		fallthrough
	default:
		// Heap tiers occupy disjoint page ranges so their page-table
		// leaf blocks are disjoint too.
		var page int
		switch u2 := s.r.float(); {
		case u2 < s.p.ColdFrac:
			if s.cZipf != nil {
				page = s.p.HotDataPages + s.p.WarmDataPages + s.cZipf.sample(s.r)
			} else {
				page = s.p.HotDataPages + s.p.WarmDataPages + s.r.intn(s.p.ColdDataPages)
			}
		case u2 < s.p.ColdFrac+s.p.WarmFrac:
			page = s.p.HotDataPages + s.r.intn(s.p.WarmDataPages)
		default:
			// Hot pages are touched with spatial locality: a handful
			// of active blocks per page, so the block working set fits
			// the L2C even though the page set stresses the DTLB.
			page = s.dZipf.sample(s.r)
			blk := arch.Addr(s.r.intn(8)) * arch.BlockSize
			a := heapBase + arch.Addr(page)*arch.PageSize4K + blk + arch.Addr(s.r.intn(8)*8)
			s.reuse.push(a)
			return a
		}
		a := heapBase + arch.Addr(page)*arch.PageSize4K + arch.Addr(s.r.intn(arch.PageSize4K/8)*8)
		s.reuse.push(a)
		return a
	}
}

// Next implements Stream.
func (s *server) Next(in *Instr) bool {
	*in = Instr{}
	s.instrCount++
	in.PC = s.funcPC(s.curFunc) + arch.Addr(s.curInstr*4)

	switch {
	case s.chaseLeft > 0:
		// Pointer-chase step: a dependent load into the warm/vast heap.
		in.LoadAddr = s.chaseAddr()
		in.DepLoad = true
		s.chaseLeft--
	case s.p.ChaseRate > 0 && s.r.float() < s.p.ChaseRate:
		s.chaseLeft = s.p.ChaseLen/2 + s.r.intn(s.p.ChaseLen)
		in.LoadAddr = s.chaseAddr()
		in.DepLoad = true
	default:
		if u := s.r.float(); u < s.p.LoadFrac {
			in.LoadAddr = s.dataAddr()
			in.DepLoad = s.r.float() < s.p.DepFrac
		} else if u < s.p.LoadFrac+s.p.StoreFrac {
			in.StoreAddr = s.dataAddr()
		}
	}

	s.curInstr++
	// Basic blocks of ~8 instructions end in a branch.
	if s.curInstr%8 == 0 || s.curInstr >= s.curFuncLen {
		in.IsBranch = true
	}

	if s.curInstr >= s.curFuncLen {
		in.Taken = true
		// Function end: call deeper or return.
		if len(s.callStack) > 0 && (s.r.float() < 0.4 || len(s.callStack) > 32) {
			s.curFunc = s.callStack[len(s.callStack)-1]
			s.callStack = s.callStack[:len(s.callStack)-1]
			s.stackPtr += 256
		} else {
			// The return branch caps the depth at 32, so append never
			// outgrows the stack's capacity of 64.
			s.callStack = append(s.callStack, s.curFunc)
			s.curFunc = s.nextFunc()
			s.stackPtr -= 256
		}
		// Burst calls run short helper functions (enter, do a little
		// work, call onward), so their instruction-page misses cluster
		// tightly enough to drain the decoupled front-end.
		if s.codeBurstLeft > 0 {
			s.curFuncLen = 8 + s.r.intn(8)
		} else {
			s.curFuncLen = s.instrPerF
		}
		s.curInstr = 0
	} else if in.IsBranch {
		// Intra-function branch: mostly not taken (fall through).
		in.Taken = s.r.float() < 0.3
	}
	return true
}

// NextBatch implements NextBatcher; server streams are infinite, so the
// batch is always full. The direct method call devirtualizes the
// per-instruction step relative to FillBatch's Stream.Next.
func (s *server) NextBatch(buf []Instr) int {
	for i := range buf {
		s.Next(&buf[i])
	}
	return len(buf)
}

func (s *server) inMemory() bool { return true }

// SpecParams shape one synthetic SPEC-like workload.
type SpecParams struct {
	Seed uint64
	// CodePages is the (small) instruction footprint in 4KB pages.
	CodePages int
	// LoopLen is the number of instructions per inner loop body.
	LoopLen int
	// LoopIters is how many times a loop repeats before moving on.
	LoopIters int
	// DataPages and DataZipf describe the data footprint.
	DataPages int
	DataZipf  float64
	LoadFrac  float64
	StoreFrac float64
	// DepFrac is the fraction of loads address-dependent on the
	// previous load.
	DepFrac float64
	// StreamFrac is the fraction of data accesses walking sequential
	// arrays; ReuseFrac re-touch recent addresses.
	StreamFrac float64
	ReuseFrac  float64
}

// spec is the small-code loop-nest generator.
type spec struct {
	p     SpecParams
	r     *rng
	dZipf *zipf

	loopStart arch.Addr
	loopInstr int
	iter      int
	streamPos arch.Addr
	reuse     reuseRing
}

// NewSpec builds a SPEC-like workload stream.
func NewSpec(p SpecParams) Stream {
	validateFracs("spec", p.LoadFrac+p.StoreFrac)
	validateFracs("spec", p.StreamFrac, p.ReuseFrac)
	s := &spec{
		p:         p,
		r:         newRNG(p.Seed),
		dZipf:     newZipf(p.DataPages, p.DataZipf),
		streamPos: streamBase,
	}
	s.pickLoop()
	return s
}

func (s *spec) pickLoop() {
	codeBytes := s.p.CodePages * arch.PageSize4K
	maxStart := codeBytes - s.p.LoopLen*4
	if maxStart < 1 {
		maxStart = 1
	}
	s.loopStart = codeBase + arch.Addr(s.r.intn(maxStart)&^3)
	s.loopInstr = 0
	s.iter = 0
}

func (s *spec) dataAddr() arch.Addr {
	u := s.r.float()
	switch {
	case u < s.p.StreamFrac:
		s.streamPos += 8
		return s.streamPos
	case u < s.p.StreamFrac+s.p.ReuseFrac:
		if a, ok := s.reuse.pick(s.r); ok {
			return a
		}
		fallthrough
	default:
		page := s.dZipf.sample(s.r)
		a := heapBase + arch.Addr(page)*arch.PageSize4K + arch.Addr(s.r.intn(arch.PageSize4K/8)*8)
		s.reuse.push(a)
		return a
	}
}

// Next implements Stream.
func (s *spec) Next(in *Instr) bool {
	*in = Instr{}
	in.PC = s.loopStart + arch.Addr(s.loopInstr*4)

	if u := s.r.float(); u < s.p.LoadFrac {
		in.LoadAddr = s.dataAddr()
		in.DepLoad = s.r.float() < s.p.DepFrac
	} else if u < s.p.LoadFrac+s.p.StoreFrac {
		in.StoreAddr = s.dataAddr()
	}

	s.loopInstr++
	if s.loopInstr >= s.p.LoopLen {
		in.IsBranch = true
		in.Taken = true
		s.loopInstr = 0
		s.iter++
		if s.iter >= s.p.LoopIters {
			s.pickLoop()
		}
	}
	return true
}

// NextBatch implements NextBatcher; spec streams are infinite, so the
// batch is always full.
func (s *spec) NextBatch(buf []Instr) int {
	for i := range buf {
		s.Next(&buf[i])
	}
	return len(buf)
}

func (s *spec) inMemory() bool { return true }

// Limit wraps a stream, ending it after n instructions; useful for
// examples and the trace writer.
func Limit(s Stream, n uint64) Stream {
	bulk, _ := s.(NextBatcher)
	return &limited{s: s, bulk: bulk, left: n}
}

type limited struct {
	s Stream
	// bulk is s's batch path, nil when it has none. Limit asserts it
	// once: an interface assertion per batch now and then allocates in
	// the runtime's per-call-site type cache.
	bulk NextBatcher
	left uint64
}

func (l *limited) Next(in *Instr) bool {
	if l.left == 0 {
		return false
	}
	l.left--
	return l.s.Next(in)
}

// NextBatch implements NextBatcher, capping the batch at the remaining
// budget and delegating to the source's bulk path when it has one.
func (l *limited) NextBatch(buf []Instr) int {
	if l.left == 0 {
		return 0
	}
	if uint64(len(buf)) > l.left {
		buf = buf[:l.left]
	}
	var n int
	if l.bulk != nil {
		n = l.bulk.NextBatch(buf)
	} else {
		n = FillBatch(l.s, buf)
	}
	l.left -= uint64(n)
	return n
}

func (l *limited) inMemory() bool { return inMemory(l.s) }

// Replay replays a pre-recorded slice of instructions (tests, traces).
type Replay struct {
	Instrs []Instr
	pos    int
}

// Next implements Stream.
func (r *Replay) Next(in *Instr) bool {
	if r.pos >= len(r.Instrs) {
		return false
	}
	*in = r.Instrs[r.pos]
	r.pos++
	return true
}

// NextBatch implements NextBatcher as a bulk copy of the recorded slice.
func (r *Replay) NextBatch(buf []Instr) int {
	n := copy(buf, r.Instrs[r.pos:])
	r.pos += n
	return n
}

func (r *Replay) inMemory() bool { return true }

// validate panics early on nonsensical parameters so misconfigured
// experiments fail loudly.
func validateFracs(name string, fracs ...float64) {
	total := 0.0
	for _, f := range fracs {
		if f < 0 || f > 1 {
			panic(fmt.Sprintf("workload %s: fraction %v out of [0,1]", name, f))
		}
		total += f
	}
	if total > 1 {
		panic(fmt.Sprintf("workload %s: fractions sum to %v > 1", name, total))
	}
}
