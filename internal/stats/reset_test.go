package stats

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// counter is one numeric leaf of a Sim: its path, such as
// Sim.Cores[2].ITLB.Hits[1], and its settable value.
type counter struct {
	path string
	v    reflect.Value
}

// counters lists every counter reachable from s, in field order. It is
// the coverage tests' own walker, written apart from the one the stats
// operations use, so a fault in that walk cannot hide from them. A leaf
// of a kind other than uint64 (arch.Cycle included) or string fails the
// test: the stats operations sum only uint64 counters.
func counters(t *testing.T, s *Sim) []counter {
	t.Helper()
	var out []counter
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Uint64:
			out = append(out, counter{path, v})
		case reflect.String: // level names are identity, not measurement
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
		default:
			t.Fatalf("%s has kind %s; stats counters must be uint64", path, v.Kind())
		}
	}
	walk(reflect.ValueOf(s).Elem(), "Sim")
	return out
}

// fillDistinct sets counter i of s to base+i, so no two counters hold
// the same value and an operation that pairs the wrong fields shows.
func fillDistinct(t *testing.T, s *Sim, base uint64) {
	t.Helper()
	cs := counters(t, s)
	if len(cs) == 0 {
		t.Fatal("no counters found; the walker is broken")
	}
	for i, c := range cs {
		c.v.SetUint(base + uint64(i))
	}
}

// values maps every counter path of s to its value.
func values(t *testing.T, s *Sim) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	for _, c := range counters(t, s) {
		out[c.path] = c.v.Uint()
	}
	return out
}

// TestResetMeasuredCoversEveryField is the regression test for the
// hand-enumerated reset bug: ResetMeasured used to list fields one by
// one, so newly added counters (STLBPrefetches was the last victim)
// silently survived the warmup→measure boundary. Filling every counter
// by reflection and asserting all of them return to zero makes
// forgetting a field impossible.
func TestResetMeasuredCoversEveryField(t *testing.T) {
	s := NewSim()
	s.EnsureTenants(4) // cover the per-tenant views beyond the SMT pair
	fillDistinct(t, s, 1)
	s.ResetMeasured()
	for _, c := range counters(t, s) {
		if v := c.v.Uint(); v != 0 {
			t.Errorf("%s = %d survived ResetMeasured", c.path, v)
		}
	}
}

// TestResetMeasuredKeepsIdentity: the reset must preserve structure —
// level names and tenant capacity — because the simulator holds
// pointers into the Cores slice and reports by level name.
func TestResetMeasuredKeepsIdentity(t *testing.T) {
	s := NewSim()
	s.EnsureTenants(4)
	s.ResetMeasured()
	if len(s.Cores) != 4 || len(s.Instructions) != 4 {
		t.Fatalf("reset changed tenant capacity: %d cores, %d instruction slots", len(s.Cores), len(s.Instructions))
	}
	for i, want := range []string{"ITLB", "DTLB", "STLB", "L1I", "L1D", "L2C", "LLC"} {
		if got := s.Levels()[i].Name; got != want {
			t.Errorf("aggregate level %d name %q, want %q", i, got, want)
		}
	}
	for i := range s.Cores {
		for j, want := range []string{"ITLB", "DTLB", "STLB", "L1I", "L1D"} {
			if got := s.Cores[i].Levels()[j].Name; got != want {
				t.Errorf("tenant %d level %d name %q, want %q", i, j, got, want)
			}
		}
	}
}

// TestAggregateTenantsIdempotent: aggregates rebuild exactly from the
// per-tenant views, however many times they are recomputed.
func TestAggregateTenantsIdempotent(t *testing.T) {
	s := NewSim()
	s.EnsureTenants(3)
	for i := range s.Cores {
		c := &s.Cores[i]
		c.ITLB.Record(BInstr, false)
		c.DTLB.Record(BData, true)
		c.STLB.RecordMissLatency(uint64(10 * (i + 1)))
		c.InstrTransCycles = 5
	}
	s.AggregateTenants()
	first := fmt.Sprintf("%+v", s)
	s.AggregateTenants()
	if second := fmt.Sprintf("%+v", s); first != second {
		t.Errorf("AggregateTenants not idempotent:\n%s\nvs\n%s", first, second)
	}
	if s.ITLB.Misses[BInstr] != 3 || s.DTLB.Hits[BData] != 3 {
		t.Errorf("aggregate sums wrong: ITLB misses %d, DTLB hits %d", s.ITLB.Misses[BInstr], s.DTLB.Hits[BData])
	}
	if s.InstrTransCycles != 15 {
		t.Errorf("InstrTransCycles = %d, want 15", s.InstrTransCycles)
	}
}

// tenantViews names the Sim fields AggregateTenants rebuilds as sums of
// the same-named Core fields. Instructions and Cycles are left out:
// they are whole-run totals, not sums of the tenant views.
var tenantViews = map[string]bool{
	"ITLB": true, "DTLB": true, "STLB": true, "L1I": true, "L1D": true,
	"InstrTransCycles": true, "DataTransCycles": true,
}

// TestAggregateTenantsCoversEveryField: with every counter distinct,
// each tenant-view aggregate must become the exact sum of the four
// tenants' views, leaf by leaf, and every other counter — Cycles,
// Instructions, the shared levels, the walk counters and every Core
// leaf — must keep its value.
func TestAggregateTenantsCoversEveryField(t *testing.T) {
	s := NewSim()
	s.EnsureTenants(4)
	fillDistinct(t, s, 1)
	before := values(t, s)
	s.AggregateTenants()
	for _, c := range counters(t, s) {
		rest := strings.TrimPrefix(c.path, "Sim.")
		want := before[c.path]
		field := strings.FieldsFunc(rest, func(r rune) bool { return r == '.' || r == '[' })[0]
		if tenantViews[field] {
			want = 0
			for i := range s.Cores {
				key := fmt.Sprintf("Sim.Cores[%d].%s", i, rest)
				v, ok := before[key]
				if !ok {
					t.Fatalf("%s has no tenant view %s", c.path, key)
				}
				want += v
			}
		}
		if got := c.v.Uint(); got != want {
			t.Errorf("%s = %d after AggregateTenants, want %d (was %d)", c.path, got, want, before[c.path])
		}
	}
}
