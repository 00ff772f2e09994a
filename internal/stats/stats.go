// Package stats collects the measurements the paper reports: per-level
// hit/miss counts broken down by access category (the dMPKI / iMPKI /
// dtMPKI / itMPKI split of Figure 4), average miss latencies (Figure 9),
// instruction-address-translation cycle accounting (Figure 1), and IPC.
package stats

import (
	"fmt"
	"math"
	"reflect"
	"strings"

	"itpsim/internal/arch"
)

// Bucket is the access category used for MPKI breakdowns.
type Bucket uint8

const (
	// BData — demand loads and stores (dMPKI).
	BData Bucket = iota
	// BInstr — instruction fetches (iMPKI).
	BInstr
	// BDataTrans — page-walk references serving data translations (dtMPKI).
	BDataTrans
	// BInstrTrans — page-walk references serving instruction translations (itMPKI).
	BInstrTrans
	// BPrefetch — prefetcher traffic (not part of demand MPKI).
	BPrefetch
	// BWriteback — writeback traffic.
	BWriteback

	// NumBuckets is the number of access categories.
	NumBuckets
)

// String implements fmt.Stringer.
func (b Bucket) String() string {
	switch b {
	case BData:
		return "data"
	case BInstr:
		return "instr"
	case BDataTrans:
		return "data-trans"
	case BInstrTrans:
		return "instr-trans"
	case BPrefetch:
		return "prefetch"
	case BWriteback:
		return "writeback"
	default:
		return fmt.Sprintf("bucket(%d)", uint8(b))
	}
}

// BucketFor maps an access to its MPKI category.
func BucketFor(a *arch.Access) Bucket {
	switch a.Kind {
	case arch.IFetch:
		return BInstr
	case arch.Load, arch.Store:
		return BData
	case arch.PTW:
		if a.Class == arch.InstrClass {
			return BInstrTrans
		}
		return BDataTrans
	case arch.Prefetch:
		return BPrefetch
	default:
		return BWriteback
	}
}

// Level accumulates hit/miss/latency statistics for one cache or TLB level.
// The zero value is ready to use.
type Level struct {
	Name   string
	Hits   [NumBuckets]uint64
	Misses [NumBuckets]uint64
	// MissLatSum/MissLatCnt accumulate the latency of demand misses so
	// the average miss latency of Figure 9 can be reported.
	MissLatSum uint64
	MissLatCnt uint64
}

// Record notes one access outcome in bucket b.
func (l *Level) Record(b Bucket, hit bool) {
	if hit {
		l.Hits[b]++
	} else {
		l.Misses[b]++
	}
}

// RecordMissLatency accumulates the observed latency of one demand miss.
func (l *Level) RecordMissLatency(cycles uint64) {
	l.MissLatSum += cycles
	l.MissLatCnt++
}

// TotalHits returns hits summed over demand buckets.
func (l *Level) TotalHits() uint64 {
	return l.Hits[BData] + l.Hits[BInstr] + l.Hits[BDataTrans] + l.Hits[BInstrTrans]
}

// TotalMisses returns misses summed over demand buckets.
func (l *Level) TotalMisses() uint64 {
	return l.Misses[BData] + l.Misses[BInstr] + l.Misses[BDataTrans] + l.Misses[BInstrTrans]
}

// MPKI returns demand misses per kilo-instruction.
func (l *Level) MPKI(instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(l.TotalMisses()) / float64(instructions) * 1000
}

// BucketMPKI returns the demand MPKI of a single category.
func (l *Level) BucketMPKI(b Bucket, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(l.Misses[b]) / float64(instructions) * 1000
}

// AvgMissLatency returns the mean demand-miss latency in cycles.
func (l *Level) AvgMissLatency() float64 {
	if l.MissLatCnt == 0 {
		return 0
	}
	return float64(l.MissLatSum) / float64(l.MissLatCnt)
}

// HitRate returns demand hits / demand accesses.
func (l *Level) HitRate() float64 {
	total := l.TotalHits() + l.TotalMisses()
	if total == 0 {
		return 0
	}
	return float64(l.TotalHits()) / float64(total)
}

// Core is the per-tenant statistics view of one CMP run. One tenant is
// one hardware thread with its own workload stream: tenant i runs on
// core i, except in the single-core SMT mode where tenants 0 and 1
// share core 0. ITLB/DTLB/STLB counters are attributed exactly per
// tenant (recorded at the translation site, where the thread is known);
// L1I/L1D counters are per core, which equals per tenant everywhere but
// under SMT, where both threads' traffic lands on tenant 0's view.
type Core struct {
	// Instructions retired and Cycles elapsed for this tenant during the
	// measured phase; their quotient is the tenant's IPC.
	Instructions uint64
	Cycles       arch.Cycle

	ITLB, DTLB Level
	// STLB is this tenant's slice of the shared second-level TLB traffic.
	STLB     Level
	L1I, L1D Level

	// InstrTransCycles / DataTransCycles are this tenant's translation
	// stall accounting (the per-tenant split of the Figure 1 metric).
	InstrTransCycles arch.Cycle
	DataTransCycles  arch.Cycle
}

// IPC returns this tenant's instructions-per-cycle.
func (c *Core) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// Levels returns the tenant's levels in report order.
func (c *Core) Levels() []*Level {
	return []*Level{&c.ITLB, &c.DTLB, &c.STLB, &c.L1I, &c.L1D}
}

// Sim aggregates everything one simulation run produces.
type Sim struct {
	// Cycles is the total simulated cycles (arch.Cycle, not a bare
	// uint64, so it cannot silently cross with instruction counts).
	Cycles arch.Cycle
	// Instructions retired, per hardware thread (tenant).
	Instructions []uint64

	// Cores holds the per-tenant statistics views of a CMP run (one
	// entry per hardware thread; always at least two so the SMT mode has
	// a slot per thread). The aggregate fields below are the exact sums
	// of the per-tenant views wherever both exist.
	Cores []Core

	ITLB, DTLB, STLB Level
	L1I, L1D, L2C    Level
	LLC              Level

	// InstrTransCycles accumulates front-end stall cycles attributable
	// to instruction address translation (the Figure 1 metric).
	InstrTransCycles arch.Cycle
	// DataTransCycles accumulates data translation latency (informational).
	DataTransCycles arch.Cycle

	// PageWalks counts completed walks by translation class.
	PageWalks [2]uint64
	// WalkLatSum accumulates total walk latency by class.
	WalkLatSum [2]arch.Cycle
	// PSCHits counts page-structure-cache hits per level index (5..2 → 0..3).
	PSCHits [4]uint64

	// XPTPEnabledWindows / XPTPDisabledWindows count the adaptive
	// controller's decisions (Section 4.3.1).
	XPTPEnabledWindows  uint64
	XPTPDisabledWindows uint64

	// DRAMAccesses counts main-memory transfers.
	DRAMAccesses uint64

	// STLBPrefetches counts sequential instruction-translation
	// prefetches issued by the Section 7 extension.
	STLBPrefetches uint64
}

// NewSim returns a Sim with the level names populated and room for the
// two hardware threads of the classic machine; EnsureTenants grows it
// for wider CMPs.
func NewSim() *Sim {
	s := &Sim{}
	s.ITLB.Name = "ITLB"
	s.DTLB.Name = "DTLB"
	s.STLB.Name = "STLB"
	s.L1I.Name = "L1I"
	s.L1D.Name = "L1D"
	s.L2C.Name = "L2C"
	s.LLC.Name = "LLC"
	s.EnsureTenants(2)
	return s
}

// EnsureTenants grows the per-tenant state to hold at least n tenants.
// Growth reallocates the Cores slice, so callers that retain pointers
// into it (the simulator wires cache sinks at construction) must size it
// once up front, before taking pointers.
func (s *Sim) EnsureTenants(n int) {
	for len(s.Instructions) < n {
		s.Instructions = append(s.Instructions, 0)
	}
	for len(s.Cores) < n {
		s.Cores = append(s.Cores, Core{})
		c := &s.Cores[len(s.Cores)-1]
		c.ITLB.Name = "ITLB"
		c.DTLB.Name = "DTLB"
		c.STLB.Name = "STLB"
		c.L1I.Name = "L1I"
		c.L1D.Name = "L1D"
	}
}

// ResetMeasured zeroes every measured counter — the warmup→measure
// boundary reset. It walks every counter, aggregate and per-tenant, so
// a newly added counter cannot survive the reset and corrupt the
// measured phase. Slice headers and level names are preserved in place
// because the simulator holds pointers into them.
func (s *Sim) ResetMeasured() {
	eachCounter(reflect.ValueOf(s).Elem(), reflect.Value{}, setZero)
}

// AggregateTenants recomputes the aggregate views that are recorded
// per tenant during a run as exact sums of the per-tenant views: every
// Sim field named like a Core field — the first-level TLBs, the STLB,
// the private L1s and the translation-cycle accounting — except
// Instructions and Cycles. Idempotent: it rebuilds those aggregates
// from scratch, so the simulator may call it at every run end.
func (s *Sim) AggregateTenants() {
	sv, cores := reflect.ValueOf(s).Elem(), reflect.ValueOf(s.Cores)
	ct := cores.Type().Elem()
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if name == "Instructions" || name == "Cycles" {
			// Sim.Cycles is the run's elapsed time, which the tenants
			// share, and Sim.Instructions is already per tenant.
			continue
		}
		agg := sv.FieldByName(name)
		eachCounter(agg, reflect.Value{}, setZero)
		for c := 0; c < cores.Len(); c++ {
			eachCounter(agg, cores.Index(c).Field(i), addScaled(1))
		}
	}
}

// AddScaled accumulates k copies of src's counters into s, growing s's
// tenants to src's first. Every counter in Sim is a sum over measured
// events, so k-fold summation is exact; it is both the shard-stitch
// accumulation (k=1) and the occupancy-weighted sum a sampled-run
// reconstruction needs (k = windows represented). Derived ratios (IPC,
// MPKI, hit rates) recompute correctly from the weighted counters
// because they are pure quotients of sums. Occupancy weights are
// integer window counts, so the multiply is exact in uint64.
func (s *Sim) AddScaled(src *Sim, k uint64) {
	s.EnsureTenants(max(len(src.Instructions), len(src.Cores)))
	eachCounter(reflect.ValueOf(s).Elem(), reflect.ValueOf(src).Elem(), addScaled(k))
}

// setZero is the counter operation dst = 0.
func setZero(d reflect.Value, _ uint64) { d.SetUint(0) }

// addScaled returns the counter operation dst += k·src.
func addScaled(k uint64) func(d reflect.Value, src uint64) {
	return func(d reflect.Value, src uint64) { d.SetUint(d.Uint() + k*src) }
}

// eachCounter calls fn on every counter of dst — each uint64-kind leaf,
// arch.Cycle included, of its structs, arrays and slices — with the
// value of the same leaf in src, or 0 where src is absent (the zero
// Value) or its slice is shorter. Strings are identity, not counters,
// and are skipped. It is the one field list of the stats operations.
// It runs at run ends and once per stitched segment, never per step, so
// a plain reflection walk is cheap enough: about 10 µs per call on a
// 4-tenant Sim.
func eachCounter(dst, src reflect.Value, fn func(d reflect.Value, src uint64)) {
	switch dst.Kind() {
	case reflect.Uint64:
		var v uint64
		if src.IsValid() {
			v = src.Uint()
		}
		fn(dst, v)
	case reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			var sf reflect.Value
			if src.IsValid() {
				sf = src.Field(i)
			}
			eachCounter(dst.Field(i), sf, fn)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < dst.Len(); i++ {
			var si reflect.Value
			if src.IsValid() && i < src.Len() {
				si = src.Index(i)
			}
			eachCounter(dst.Index(i), si, fn)
		}
	}
}

// TotalInstructions returns instructions retired across all threads.
func (s *Sim) TotalInstructions() uint64 {
	var total uint64
	for _, n := range s.Instructions {
		total += n
	}
	return total
}

// IPC returns the combined instructions-per-cycle.
func (s *Sim) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.TotalInstructions()) / float64(s.Cycles)
}

// InstrTransFraction returns the fraction of all cycles spent serving
// instruction address translation (Figure 1's y-axis).
func (s *Sim) InstrTransFraction() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.InstrTransCycles) / float64(s.Cycles)
}

// AvgWalkLatency returns the mean page-walk latency for class c.
func (s *Sim) AvgWalkLatency(c arch.Class) float64 {
	if s.PageWalks[c] == 0 {
		return 0
	}
	return float64(s.WalkLatSum[c]) / float64(s.PageWalks[c])
}

// Levels returns all levels in report order.
func (s *Sim) Levels() []*Level {
	return []*Level{&s.ITLB, &s.DTLB, &s.STLB, &s.L1I, &s.L1D, &s.L2C, &s.LLC}
}

// String renders a human-readable report.
func (s *Sim) String() string {
	var b strings.Builder
	instr := s.TotalInstructions()
	fmt.Fprintf(&b, "cycles=%d instructions=%d ipc=%.4f\n", s.Cycles, instr, s.IPC())
	fmt.Fprintf(&b, "instr-translation-cycles=%d (%.2f%% of cycles)\n",
		s.InstrTransCycles, 100*s.InstrTransFraction())
	for _, l := range s.Levels() {
		fmt.Fprintf(&b, "%-5s mpki=%8.3f  [d=%.3f i=%.3f dt=%.3f it=%.3f]  avg-miss-lat=%.1f  hit-rate=%.3f\n",
			l.Name, l.MPKI(instr),
			l.BucketMPKI(BData, instr), l.BucketMPKI(BInstr, instr),
			l.BucketMPKI(BDataTrans, instr), l.BucketMPKI(BInstrTrans, instr),
			l.AvgMissLatency(), l.HitRate())
	}
	fmt.Fprintf(&b, "walks: instr=%d (avg %.1f cyc) data=%d (avg %.1f cyc)\n",
		s.PageWalks[arch.InstrClass], s.AvgWalkLatency(arch.InstrClass),
		s.PageWalks[arch.DataClass], s.AvgWalkLatency(arch.DataClass))
	fmt.Fprintf(&b, "dram-accesses=%d\n", s.DRAMAccesses)
	return b.String()
}

// Geomean returns the geometric mean of xs (must all be > 0); it returns 0
// for an empty slice. It is the aggregation the paper uses for speedups.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
