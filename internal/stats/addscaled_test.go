package stats

import (
	"reflect"
	"testing"
)

// TestAddScaledCoversEveryField is the weighted twin of
// TestResetMeasuredCoversEveryField. Source and destination hold
// distinct values in every counter, and the destination starts with
// fewer tenants than the source, so each destination counter must end
// at its old value (0 for a grown tenant) plus k times the source
// counter on the same path: a newly added counter cannot silently drop
// out of stitched (k=1) or sampled (k=weight) results, and no counter
// can be summed into its neighbour.
func TestAddScaledCoversEveryField(t *testing.T) {
	const k = 3
	src := NewSim()
	src.EnsureTenants(4)
	fillDistinct(t, src, 1)
	dst := NewSim()
	fillDistinct(t, dst, 1<<20)
	before := values(t, dst)

	dst.AddScaled(src, k)
	want := values(t, src)
	got := counters(t, dst)
	if len(got) != len(want) {
		t.Fatalf("destination has %d counters after AddScaled, source %d", len(got), len(want))
	}
	for _, c := range got {
		s, ok := want[c.path]
		if !ok {
			t.Errorf("%s is not a source counter", c.path)
			continue
		}
		if v := c.v.Uint(); v != before[c.path]+k*s {
			t.Errorf("%s = %d after AddScaled, want %d + %d×%d", c.path, v, before[c.path], k, s)
		}
	}
}

// TestAddScaledMatchesRepeatedAdd: the weighted sum must equal the same
// source accumulated k times — the identity the occupancy-weighted
// reconstruction relies on.
func TestAddScaledMatchesRepeatedAdd(t *testing.T) {
	src := NewSim()
	src.EnsureTenants(3)
	fillDistinct(t, src, 1)

	scaled := NewSim()
	scaled.AddScaled(src, 5)

	repeated := NewSim()
	for i := 0; i < 5; i++ {
		repeated.AddScaled(src, 1)
	}
	if !reflect.DeepEqual(scaled, repeated) {
		t.Errorf("AddScaled(src, 5) != 5×AddScaled(src, 1):\n%+v\nvs\n%+v", scaled, repeated)
	}
}

// TestAddScaledGrowsTenants: accumulating a wider Sim grows the
// destination's per-tenant views instead of dropping the extra tenants.
func TestAddScaledGrowsTenants(t *testing.T) {
	src := NewSim()
	src.EnsureTenants(6)
	src.Instructions[5] = 11
	src.Cores[5].Instructions = 11

	dst := NewSim()
	dst.AddScaled(src, 2)
	if len(dst.Cores) != 6 || len(dst.Instructions) != 6 {
		t.Fatalf("destination not grown: %d cores, %d instruction slots", len(dst.Cores), len(dst.Instructions))
	}
	if dst.Instructions[5] != 22 || dst.Cores[5].Instructions != 22 {
		t.Errorf("tenant 5 not accumulated: %d / %d, want 22", dst.Instructions[5], dst.Cores[5].Instructions)
	}
}
