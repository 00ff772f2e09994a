package cache

import (
	"errors"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/audit"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
)

func cacheHash(c *Cache) uint64 {
	h := arch.NewStateHash()
	c.HashState(&h)
	return h.Sum()
}

func auditCache(t *testing.T, c *Cache, now uint64) []audit.Violation {
	t.Helper()
	a := &audit.Auditor{}
	a.Register(c.Name(), c)
	err := a.Run(0, now)
	if err == nil {
		return nil
	}
	var ae *audit.Error
	if !errors.As(err, &ae) {
		t.Fatalf("audit returned %T: %v", err, err)
	}
	return ae.Violations
}

func trafficCache() *Cache {
	next := &fixedLevel{latency: 100}
	c := New("l2c", smallCfg(), replacement.NewLRU(), next, nil)
	for i := 0; i < 10; i++ {
		c.Access(uint64(i)*200, load(arch.Addr(0x1000+i*64)))
	}
	return c
}

func TestCacheHashStateDeterministic(t *testing.T) {
	a, b := trafficCache(), trafficCache()
	if cacheHash(a) != cacheHash(b) {
		t.Fatal("identical caches must hash equal")
	}
	if cacheHash(a) != cacheHash(a) {
		t.Fatal("hashing must not mutate state")
	}
	a.Access(10_000, load(0x9000))
	if cacheHash(a) == cacheHash(b) {
		t.Fatal("an extra access must change the hash")
	}
}

func TestCacheHashStateCoversMSHRs(t *testing.T) {
	a, b := trafficCache(), trafficCache()
	// An access whose MSHR is still in flight at hash time differs only
	// in the MSHR file and the filled line.
	a.Access(20_000, load(0xf000))
	if cacheHash(a) == cacheHash(b) {
		t.Fatal("an in-flight miss must change the hash")
	}
}

func TestCacheAuditCleanAfterTraffic(t *testing.T) {
	c := trafficCache()
	if v := auditCache(t, c, 100_000); v != nil {
		t.Fatalf("clean cache reported violations: %v", v)
	}
}

func TestCacheAuditDetectsStackCorruption(t *testing.T) {
	c := trafficCache()
	c.setAt(0).Stack[0] = 99
	found := false
	for _, v := range auditCache(t, c, 100_000) {
		if v.Rule == "stack-permutation" {
			found = true
		}
	}
	if !found {
		t.Fatal("corrupted stack position must be reported")
	}
}

func TestCacheAuditDetectsDuplicateBlock(t *testing.T) {
	c := trafficCache()
	// Force two valid ways of set 0 to the same (tag, thread).
	set := c.setAt(0)
	set.Tags[0], set.Tags[1] = 0xabc, 0xabc
	set.Lines[0].Thread, set.Lines[1].Thread = 0, 0
	found := false
	for _, v := range auditCache(t, c, 100_000) {
		if v.Rule == "duplicate-block" {
			found = true
		}
	}
	if !found {
		t.Fatal("duplicate (tag, thread) in one set must be reported")
	}
}

func TestCacheAuditDetectsPTEBitViolations(t *testing.T) {
	c := trafficCache()
	// The traffic filled both ways of set 1, so they are valid.
	set := c.setAt(1)
	set.Lines[0].SetDataPTE(true)
	set.Lines[0].SetPTE(false)
	set.Tags[1] = set.Tags[0] + 1
	set.Lines[1].SetPTE(true)
	set.Lines[1].SetSTLBMiss(true)
	rules := map[string]int{}
	for _, v := range auditCache(t, c, 100_000) {
		rules[v.Rule]++
	}
	if rules["pte-bits"] != 2 {
		t.Fatalf("want 2 pte-bits violations, got %v", rules)
	}
}

func TestCacheAuditDetectsMSHRLeak(t *testing.T) {
	c := trafficCache()
	now := uint64(100_000)
	c.mshrs[0] = mshrEntry{valid: true, block: 0x77, thread: 0, readyAt: now + mshrLeakHorizon + 1}
	found := false
	for _, v := range auditCache(t, c, now) {
		if v.Rule == "mshr-leak" {
			found = true
		}
	}
	if !found {
		t.Fatal("MSHR completing past the leak horizon must be reported")
	}
}

func TestCacheAuditDetectsDuplicateMSHR(t *testing.T) {
	c := trafficCache()
	now := uint64(100_000)
	c.mshrs[0] = mshrEntry{valid: true, block: 0x88, thread: 1, readyAt: now + 50}
	c.mshrs[1] = mshrEntry{valid: true, block: 0x88, thread: 1, readyAt: now + 80}
	found := false
	for _, v := range auditCache(t, c, now) {
		if v.Rule == "mshr-leak" {
			found = true
		}
	}
	if !found {
		t.Fatal("two in-flight MSHRs for one (block, thread) must be reported")
	}
}

func TestCacheAuditIgnoresRetiredMSHRs(t *testing.T) {
	c := trafficCache()
	now := uint64(100_000)
	// Entries whose readyAt has passed are dead capacity, not leaks,
	// even if stale duplicates remain in the file.
	c.mshrs[0] = mshrEntry{valid: true, block: 0x99, thread: 0, readyAt: now - 10}
	c.mshrs[1] = mshrEntry{valid: true, block: 0x99, thread: 0, readyAt: now - 5}
	if v := auditCache(t, c, now); v != nil {
		t.Fatalf("retired MSHR entries reported as violations: %v", v)
	}
}

// TestCacheAuditDetectsEmptyWayState: an empty way carrying line state,
// a non-zero signature or a non-zero ETA breaks the empty-way rule.
func TestCacheAuditDetectsEmptyWayState(t *testing.T) {
	cfg := smallCfg()
	for _, tc := range []struct {
		policy, state string
		set           func(s *replacement.Set, w int)
	}{
		{"lru", "RRPV", func(s *replacement.Set, w int) { s.Lines[w].RRPV = 1 }},
		{"ship", "signature", func(s *replacement.Set, w int) { s.Sigs[w] = 1 }},
		{"mockingjay", "ETA", func(s *replacement.Set, w int) { s.ETAs[w] = 1 }},
	} {
		c := newPolicyCache(cfg, tc.policy)
		c.Access(0, load(0x1000)) // one of set 0's two ways
		if v := auditCache(t, c, 100_000); v != nil {
			t.Fatalf("%s: half-filled cache reported violations: %v", tc.policy, v)
		}
		set := c.setAt(0)
		tc.set(&set, replacement.InvalidWay(&set))
		found := false
		for _, v := range auditCache(t, c, 100_000) {
			if v.Rule == "empty-way" {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: an empty way's %s must be reported", tc.policy, tc.state)
		}
	}
}

// TestCacheAuditCleanUnderEveryPolicy drives every named policy through
// sets the traffic never fills, auditing after each access: a policy
// must leave empty ways untouched (HashState folds them as zero lines).
func TestCacheAuditCleanUnderEveryPolicy(t *testing.T) {
	for _, name := range []string{"lru", "random", "srrip", "brrip", "drrip", "ship",
		"mockingjay", "hawkeye", "ptp", "tdrrip", "tship", "emissary"} {
		t.Run(name, func(t *testing.T) {
			cfg := config.CacheConfig{Sets: 4, Ways: 4, Latency: 5, MSHRs: 4}
			pol, err := replacement.FromName(name, cfg.Sets, cfg.Ways, 1)
			if err != nil {
				t.Fatal(err)
			}
			c := New("l2c", cfg, pol, &fixedLevel{latency: 100}, nil)
			for i := 0; i < 200; i++ {
				// Three blocks per set: one way of each stays empty.
				block := uint64(i%3)*4 + uint64(i/3%4)
				c.Access(uint64(i)*200, &arch.Access{Addr: block << arch.BlockBits, PC: uint64(i%5) * 4, Kind: arch.Load})
				if v := auditCache(t, c, uint64(i)*200+1_000); v != nil {
					t.Fatalf("access %d: %v", i, v)
				}
			}
		})
	}
}
