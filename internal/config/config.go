// Package config describes the simulated machine. Default() reproduces
// Table 1 of the paper; every experiment perturbs a copy of it.
package config

import (
	"encoding/json"
	"fmt"
)

// CacheConfig sizes one cache level.
type CacheConfig struct {
	Sets      int    `json:"sets"`
	Ways      int    `json:"ways"`
	Latency   uint64 `json:"latency"` // hit/access latency in cycles
	MSHRs     int    `json:"mshrs"`
	SizeBytes int    `json:"size_bytes"` // informational: sets*ways*64
}

// Entries returns the total block capacity of the cache.
func (c CacheConfig) Entries() int { return c.Sets * c.Ways }

// MaxCacheWays bounds the associativity of every cache and TLB: both
// keep recency-stack positions as bytes that one kernel updates eight
// per word, and the update needs every position below 128
// (replacement.MoveToStackPos).
const MaxCacheWays = 128

// TLBConfig sizes one TLB level.
type TLBConfig struct {
	Sets    int    `json:"sets"`
	Ways    int    `json:"ways"`
	Latency uint64 `json:"latency"`
	MSHRs   int    `json:"mshrs"`
}

// Entries returns the total entry capacity of the TLB.
func (c TLBConfig) Entries() int { return c.Sets * c.Ways }

// PSCConfig sizes one page structure cache level.
type PSCConfig struct {
	Entries int `json:"entries"`
	Ways    int `json:"ways"` // Ways == Entries means fully associative
}

// ITPParams are the iTP knobs of Section 4.1: insertion depth N, data
// promotion distance M (from the bottom of the stack), and the saturating
// frequency counter width in bits.
type ITPParams struct {
	N        int `json:"n"`
	M        int `json:"m"`
	FreqBits int `json:"freq_bits"`
}

// XPTPParams are the xPTP knobs of Section 4.2/4.3: the alternative-victim
// distance K and the adaptive controller's STLB-miss threshold T1 per
// 1000-instruction window (T1 <= 0 disables adaptivity, i.e. xPTP always on).
type XPTPParams struct {
	K           int    `json:"k"`
	T1          int    `json:"t1"`
	WindowInstr uint64 `json:"window_instr"`
}

// DRAMConfig is the simple main-memory timing model: a fixed access
// latency (tRP+tRCD+tCAS scaled to core cycles) plus per-transfer channel
// occupancy derived from the 12.8 GB/s bandwidth of Table 1.
type DRAMConfig struct {
	LatencyCycles  uint64 `json:"latency_cycles"`
	TransferCycles uint64 `json:"transfer_cycles"`
	RowBufferBonus uint64 `json:"row_buffer_bonus"` // cycles saved on row hit
	RowBufferPages int    `json:"row_buffer_pages"` // open rows tracked per bank group
}

// SystemConfig is the full machine description.
type SystemConfig struct {
	// Core.
	FetchWidth    int    `json:"fetch_width"`
	RetireWidth   int    `json:"retire_width"`
	ROBSize       int    `json:"rob_size"`
	FTQDepth      int    `json:"ftq_depth"`
	ExecLatency   uint64 `json:"exec_latency"`
	MispredictPen uint64 `json:"mispredict_penalty"`
	// BranchPredictor selects the direction predictor: "fixed" (default;
	// correct with probability BranchPredAccuracy) or "perceptron" (a
	// real hashed-perceptron model, Table 1's predictor).
	BranchPredictor string `json:"branch_predictor"`
	// BranchPredAccuracy approximates the hashed-perceptron predictor of
	// Table 1 (fraction of branches predicted correctly) when
	// BranchPredictor is "fixed".
	BranchPredAccuracy float64 `json:"branch_pred_accuracy"`

	// TLBs.
	ITLB TLBConfig `json:"itlb"`
	DTLB TLBConfig `json:"dtlb"`
	STLB TLBConfig `json:"stlb"`
	// SplitSTLB switches to separate instruction/data STLBs (Section
	// 6.6); each half receives STLB.Entries()/2 entries.
	SplitSTLB bool `json:"split_stlb"`

	// Page structure caches, indexed PSCL5, PSCL4, PSCL3, PSCL2.
	PSC        [4]PSCConfig `json:"psc"`
	PSCLatency uint64       `json:"psc_latency"`
	// PageWalkers bounds concurrent walks.
	PageWalkers int `json:"page_walkers"`

	// Caches.
	L1I CacheConfig `json:"l1i"`
	L1D CacheConfig `json:"l1d"`
	L2C CacheConfig `json:"l2c"`
	LLC CacheConfig `json:"llc"`

	DRAM DRAMConfig `json:"dram"`

	// Replacement policy selection by name (see internal/experiments
	// for the Table 2 combinations).
	STLBPolicy string `json:"stlb_policy"`
	L2CPolicy  string `json:"l2c_policy"`
	LLCPolicy  string `json:"llc_policy"`

	// Policy parameters.
	ITP  ITPParams  `json:"itp"`
	XPTP XPTPParams `json:"xptp"`
	// ProbKeepInstr is the probability P of the motivation-study LRU
	// variant (Figure 3) when STLBPolicy == "problru".
	ProbKeepInstr float64 `json:"prob_keep_instr"`

	// Prefetchers.
	L1DNextLine  bool `json:"l1d_next_line"`
	L2CStride    bool `json:"l2c_stride"`
	L1IFDIP      bool `json:"l1i_fdip"`
	FDIPDistance int  `json:"fdip_distance"`

	// STLBPrefetch enables the paper's future-work extension (Section 7,
	// "Translation Prefetching"): on an instruction STLB miss, the next
	// sequential code page's translation is prefetched into the STLB,
	// where iTP's insertion policy decides its priority.
	STLBPrefetch bool `json:"stlb_prefetch"`

	// HugePageFraction is the fraction of the code+data footprint backed
	// by 2MB pages (Section 6.5); 0 means the 4KB-only scenario.
	HugePageFraction float64 `json:"huge_page_fraction"`

	// SMT enables the two-hardware-thread core model.
	SMT bool `json:"smt"`

	// Cores selects the CMP width: N cores with private L1s, first-level
	// TLBs, and branch predictors contending on the shared STLB, L2C,
	// LLC, page-table walker, and DRAM. 0 and 1 both mean the classic
	// single-core machine (which still supports the 2-thread SMT mode);
	// Cores > 1 requires exactly one workload stream per core.
	Cores int `json:"cores"`
}

// MaxCores bounds the CMP width: tenant ids travel the hierarchy as
// uint8 thread tags and the CHiRP history file is sized to match.
const MaxCores = 64

// Default returns the Table 1 configuration.
func Default() SystemConfig {
	return SystemConfig{
		FetchWidth:         6,
		RetireWidth:        6,
		ROBSize:            352,
		FTQDepth:           128,
		ExecLatency:        1,
		MispredictPen:      14,
		BranchPredAccuracy: 0.97,

		ITLB: TLBConfig{Sets: 16, Ways: 4, Latency: 1, MSHRs: 8},
		DTLB: TLBConfig{Sets: 16, Ways: 4, Latency: 1, MSHRs: 8},
		STLB: TLBConfig{Sets: 128, Ways: 12, Latency: 8, MSHRs: 16},

		PSC: [4]PSCConfig{
			{Entries: 2, Ways: 2},  // PSCL5, fully associative
			{Entries: 4, Ways: 4},  // PSCL4, fully associative
			{Entries: 8, Ways: 2},  // PSCL3, 2-way
			{Entries: 32, Ways: 4}, // PSCL2, 4-way
		},
		PSCLatency:  2,
		PageWalkers: 4,

		L1I: CacheConfig{Sets: 64, Ways: 8, Latency: 4, MSHRs: 8, SizeBytes: 32 << 10},
		// Table 1 lists a 32KB 12-way L1D (42.7 sets); we round to the
		// nearest power-of-two set count the indexing supports.
		L1D: CacheConfig{Sets: 32, Ways: 12, Latency: 5, MSHRs: 8, SizeBytes: 24 << 10},
		L2C: CacheConfig{Sets: 1024, Ways: 8, Latency: 5, MSHRs: 32, SizeBytes: 512 << 10},
		LLC: CacheConfig{Sets: 2048, Ways: 16, Latency: 10, MSHRs: 64, SizeBytes: 2 << 20},

		DRAM: DRAMConfig{
			LatencyCycles:  110, // (tRP+tRCD+tCAS)=36 mem cycles scaled to 4GHz core
			TransferCycles: 20,  // 64B / 12.8GB/s at 4GHz
			RowBufferBonus: 45,
			RowBufferPages: 16,
		},

		STLBPolicy: "lru",
		L2CPolicy:  "lru",
		LLCPolicy:  "lru",

		ITP: ITPParams{N: 4, M: 8, FreqBits: 3},
		// T1/WindowInstr give the Section 4.3.1 controller: xPTP stays
		// enabled while STLB misses exceed 0.4 MPKI measured over 20k
		// retired instructions (the longer window keeps the bursty miss
		// arrivals of chase-heavy phases from flapping the policy).
		XPTP: XPTPParams{K: 8, T1: 8, WindowInstr: 20000},

		ProbKeepInstr: 0.8,

		L1DNextLine:  true,
		L2CStride:    true,
		L1IFDIP:      true,
		FDIPDistance: 24,
	}
}

// Validate checks structural invariants and returns a descriptive error
// for the first violation found.
func (c *SystemConfig) Validate() error {
	// checkSets bounds the geometry caches and TLBs share: both keep
	// their sets' recency stacks with one kernel.
	checkSets := func(name string, sets, ways int) error {
		if sets <= 0 || ways <= 0 {
			return fmt.Errorf("config: %s must have positive sets/ways (got %d/%d)", name, sets, ways)
		}
		if ways > MaxCacheWays {
			return fmt.Errorf("config: %s ways must be at most %d (got %d)", name, MaxCacheWays, ways)
		}
		if sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s sets must be a power of two (got %d)", name, sets)
		}
		return nil
	}
	checkCache := func(name string, cc CacheConfig) error {
		if cc.MSHRs <= 0 {
			return fmt.Errorf("config: %s needs MSHRs", name)
		}
		return checkSets(name, cc.Sets, cc.Ways)
	}
	for _, e := range []error{
		checkSets("ITLB", c.ITLB.Sets, c.ITLB.Ways), checkSets("DTLB", c.DTLB.Sets, c.DTLB.Ways),
		checkSets("STLB", c.STLB.Sets, c.STLB.Ways),
		checkCache("L1I", c.L1I), checkCache("L1D", c.L1D),
		checkCache("L2C", c.L2C), checkCache("LLC", c.LLC),
	} {
		if e != nil {
			return e
		}
	}
	if c.STLB.MSHRs <= 0 {
		return fmt.Errorf("config: STLB needs MSHRs")
	}
	if c.SplitSTLB && c.STLB.Sets < 2 {
		return fmt.Errorf("config: a split STLB halves the STLB's sets, so it needs at least 2 (got %d)", c.STLB.Sets)
	}
	if c.FetchWidth <= 0 || c.RetireWidth <= 0 || c.ROBSize <= 0 {
		return fmt.Errorf("config: core widths and ROB must be positive")
	}
	if c.PageWalkers <= 0 {
		return fmt.Errorf("config: need at least one page walker")
	}
	if c.ITP.N < 0 || c.ITP.N >= c.STLB.Ways {
		return fmt.Errorf("config: iTP N=%d must be in [0, STLB ways)", c.ITP.N)
	}
	if c.ITP.M <= c.ITP.N || c.ITP.M >= c.STLB.Ways {
		return fmt.Errorf("config: iTP M=%d must satisfy N < M < STLB ways", c.ITP.M)
	}
	if c.ITP.FreqBits < 1 || c.ITP.FreqBits > 8 {
		return fmt.Errorf("config: iTP FreqBits=%d out of range [1,8]", c.ITP.FreqBits)
	}
	// K == ways is legal and means "always prefer the alternative victim"
	// (the inequality ALT_pos >= LRU_pos+K can then never hold).
	if c.XPTP.K < 0 || c.XPTP.K > c.L2C.Ways {
		return fmt.Errorf("config: xPTP K=%d must be in [0, L2C ways]", c.XPTP.K)
	}
	if c.HugePageFraction < 0 || c.HugePageFraction > 1 {
		return fmt.Errorf("config: HugePageFraction=%v out of [0,1]", c.HugePageFraction)
	}
	if c.ProbKeepInstr < 0 || c.ProbKeepInstr > 1 {
		return fmt.Errorf("config: ProbKeepInstr=%v out of [0,1]", c.ProbKeepInstr)
	}
	if c.BranchPredAccuracy < 0 || c.BranchPredAccuracy > 1 {
		return fmt.Errorf("config: BranchPredAccuracy out of [0,1]")
	}
	if c.BranchPredictor != "" && c.BranchPredictor != "fixed" && c.BranchPredictor != "perceptron" {
		return fmt.Errorf("config: unknown BranchPredictor %q", c.BranchPredictor)
	}
	if c.Cores < 0 || c.Cores > MaxCores {
		return fmt.Errorf("config: Cores=%d out of [0,%d]", c.Cores, MaxCores)
	}
	if c.SMT && c.Cores > 1 {
		return fmt.Errorf("config: SMT is a single-core mode; it cannot combine with Cores=%d", c.Cores)
	}
	return nil
}

// MarshalJSON pretty-prints; just delegates to a type alias to avoid
// recursion while still allowing json.Marshal(c).
func (c SystemConfig) MarshalPretty() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// FromJSON parses a SystemConfig and validates it.
func FromJSON(data []byte) (SystemConfig, error) {
	c := Default()
	if err := json.Unmarshal(data, &c); err != nil {
		return c, fmt.Errorf("config: parse: %w", err)
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// WithITLBEntries returns a copy with the ITLB resized to n entries
// (keeping 4-way associativity where possible); used by the Figure 1/12
// sweeps.
func (c SystemConfig) WithITLBEntries(n int) SystemConfig {
	ways := 4
	if n < ways {
		ways = n
	}
	c.ITLB = TLBConfig{Sets: n / ways, Ways: ways, Latency: c.ITLB.Latency, MSHRs: c.ITLB.MSHRs}
	return c
}

// WithSTLBEntries returns a copy with the STLB resized to n entries at
// 12-way associativity (Section 6.6's 1536/3072 designs).
func (c SystemConfig) WithSTLBEntries(n int) SystemConfig {
	ways := 12
	c.STLB = TLBConfig{Sets: n / ways, Ways: ways, Latency: c.STLB.Latency, MSHRs: c.STLB.MSHRs}
	return c
}
