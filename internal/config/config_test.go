package config

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if c.ROBSize != 352 {
		t.Errorf("ROB = %d, want 352", c.ROBSize)
	}
	if c.FetchWidth != 6 {
		t.Errorf("fetch width = %d, want 6", c.FetchWidth)
	}
	if c.FTQDepth != 128 {
		t.Errorf("FTQ = %d, want 128", c.FTQDepth)
	}
	if got := c.ITLB.Entries(); got != 64 {
		t.Errorf("ITLB entries = %d, want 64", got)
	}
	if got := c.DTLB.Entries(); got != 64 {
		t.Errorf("DTLB entries = %d, want 64", got)
	}
	if got := c.STLB.Entries(); got != 1536 {
		t.Errorf("STLB entries = %d, want 1536", got)
	}
	if c.STLB.Ways != 12 || c.STLB.Latency != 8 {
		t.Errorf("STLB shape wrong: %+v", c.STLB)
	}
	if got := c.L2C.Entries() * 64; got != 512<<10 {
		t.Errorf("L2C size = %d, want 512KB", got)
	}
	if got := c.LLC.Entries() * 64; got != 2<<20 {
		t.Errorf("LLC size = %d, want 2MB", got)
	}
	if c.ITP.N != 4 || c.ITP.M != 8 || c.ITP.FreqBits != 3 {
		t.Errorf("iTP params wrong: %+v", c.ITP)
	}
	if c.XPTP.K != 8 {
		t.Errorf("xPTP K = %d, want 8", c.XPTP.K)
	}
	if c.PageWalkers != 4 {
		t.Errorf("page walkers = %d, want 4", c.PageWalkers)
	}
	// PSC shapes from Table 1.
	wantPSC := [4]PSCConfig{{2, 2}, {4, 4}, {8, 2}, {32, 4}}
	if c.PSC != wantPSC {
		t.Errorf("PSC = %+v, want %+v", c.PSC, wantPSC)
	}
}

func TestValidateRejections(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*SystemConfig)
		frag string
	}{
		{"zero sets", func(c *SystemConfig) { c.L2C.Sets = 0 }, "L2C"},
		{"non-pow2 sets", func(c *SystemConfig) { c.LLC.Sets = 1000 }, "power of two"},
		{"no mshrs", func(c *SystemConfig) { c.L1I.MSHRs = 0 }, "MSHR"},
		{"too many ways", func(c *SystemConfig) { c.LLC.Ways = MaxCacheWays + 1 }, "LLC ways"},
		{"tlb zero ways", func(c *SystemConfig) { c.STLB.Ways = 0 }, "STLB"},
		{"tlb too many ways", func(c *SystemConfig) { c.ITLB.Ways = MaxCacheWays + 1 }, "ITLB ways"},
		{"stlb no mshrs", func(c *SystemConfig) { c.STLB.MSHRs = 0 }, "STLB needs MSHRs"},
		{"split stlb one set", func(c *SystemConfig) { c.SplitSTLB, c.STLB.Sets = true, 1 }, "split STLB"},
		{"bad rob", func(c *SystemConfig) { c.ROBSize = 0 }, "ROB"},
		{"no walkers", func(c *SystemConfig) { c.PageWalkers = 0 }, "walker"},
		{"itp n too big", func(c *SystemConfig) { c.ITP.N = 12 }, "iTP N"},
		{"itp m <= n", func(c *SystemConfig) { c.ITP.M = 4 }, "iTP M"},
		{"itp freq bits", func(c *SystemConfig) { c.ITP.FreqBits = 0 }, "FreqBits"},
		{"xptp k", func(c *SystemConfig) { c.XPTP.K = 9 }, "xPTP K"},
		{"huge frac", func(c *SystemConfig) { c.HugePageFraction = 1.5 }, "HugePageFraction"},
		{"prob", func(c *SystemConfig) { c.ProbKeepInstr = -0.1 }, "ProbKeepInstr"},
		{"bp accuracy", func(c *SystemConfig) { c.BranchPredAccuracy = 2 }, "BranchPredAccuracy"},
	}
	for _, m := range mutations {
		c := Default()
		m.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: expected validation error", m.name)
			continue
		}
		if m.frag != "" && !strings.Contains(err.Error(), m.frag) {
			t.Errorf("%s: error %q missing %q", m.name, err, m.frag)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := Default()
	c.STLBPolicy = "itp"
	c.L2CPolicy = "xptp"
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.STLBPolicy != "itp" || back.L2CPolicy != "xptp" {
		t.Errorf("round trip lost policies: %+v", back)
	}
	if back.STLB.Entries() != c.STLB.Entries() {
		t.Error("round trip lost STLB size")
	}
}

func TestFromJSONInvalid(t *testing.T) {
	if _, err := FromJSON([]byte("{not json")); err == nil {
		t.Error("expected parse error")
	}
	if _, err := FromJSON([]byte(`{"rob_size": -1}`)); err == nil {
		t.Error("expected validation error")
	}
}

func TestMarshalPretty(t *testing.T) {
	data, err := Default().MarshalPretty()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\n  ") {
		t.Error("expected indented output")
	}
}

func TestWithITLBEntries(t *testing.T) {
	for _, n := range []int{8, 64, 128, 512, 1024} {
		c := Default().WithITLBEntries(n)
		if got := c.ITLB.Entries(); got != n {
			t.Errorf("WithITLBEntries(%d) -> %d entries", n, got)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("WithITLBEntries(%d) invalid: %v", n, err)
		}
	}
}

func TestWithSTLBEntries(t *testing.T) {
	for _, n := range []int{1536, 3072} {
		c := Default().WithSTLBEntries(n)
		if got := c.STLB.Entries(); got != n {
			t.Errorf("WithSTLBEntries(%d) -> %d", n, got)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("WithSTLBEntries(%d) invalid: %v", n, err)
		}
	}
}
