package run

import (
	"reflect"
	"testing"
)

// TestKeyLiterals pins the job-key scheme byte for byte: the run key of
// every run mode and the segment job keys of split runs. Checkpoint
// journals are addressed by these strings, so a refactor that moves a
// hash input or a suffix would orphan every journal on disk; it must
// fail here first.
func TestKeyLiterals(t *testing.T) {
	smt := base()
	smt.Tenants, smt.System.SMT = []string{"srv_000", "srv_001"}, true
	cmp := base()
	cmp.Tenants, cmp.System.Cores = []string{"srv_000", "srv_001"}, 4
	sharded := base()
	sharded.Shards = 2
	sampled := base()
	sampled.Phases, sampled.Window = 2, 10_000
	warmed := base()
	warmed.FuncWarmup = 10_000
	for _, c := range []struct {
		name string
		spec Spec
		key  string
		jobs []string // segment job keys of a split run
	}{
		{"whole", base(), "srv_000|lru/lru/lru|8da150c2bc9b1d36", nil},
		{"smt", smt, "srv_000+srv_001|lru/lru/lru|42efdaab28a7ed6c", nil},
		{"cmp", cmp, "srv_000+srv_001|lru/lru/lru|6699136fc5d33265", nil},
		{"sharded", sharded, "srv_000|lru/lru/lru|36531e09f7059559", []string{
			"srv_000|lru/lru/lru|36531e09f7059559|shard0/2|o0|w20000|m20000",
			"srv_000|lru/lru/lru|36531e09f7059559|shard1/2|o20000|w20000|m20000",
		}},
		{"sampled", sampled, "srv_000|lru/lru/lru|8ffe33f1e10f266d", []string{
			"srv_000|lru/lru/lru|8ffe33f1e10f266d|sample2/w10000|shard0/2|o0|w20000|m10000",
			"srv_000|lru/lru/lru|8ffe33f1e10f266d|sample2/w10000|shard1/2|o20000|w20000|m10000",
		}},
		{"func-warmup", warmed, "srv_000|lru/lru/lru|7a5f26b29f6e1fb9", []string{
			"srv_000|lru/lru/lru|7a5f26b29f6e1fb9|shard0/1|o0|w10000|m40000|f10000",
		}},
	} {
		if got := c.spec.Key(); got != c.key {
			t.Errorf("%s: key %q, want %q", c.name, got, c.key)
		}
		if !c.spec.Split() {
			continue
		}
		jobs, _, err := newTestRunner().split(&c.spec, c.spec.Key(), nil, "")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got []string
		for _, j := range jobs {
			got = append(got, j.Key)
		}
		if !reflect.DeepEqual(got, c.jobs) {
			t.Errorf("%s: segment job keys\n%q\nwant\n%q", c.name, got, c.jobs)
		}
	}
}
