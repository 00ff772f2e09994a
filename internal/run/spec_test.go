package run

import (
	"reflect"
	"strings"
	"testing"

	"itpsim/internal/config"
	"itpsim/internal/sim"
)

func base() Spec {
	return Spec{Tenants: []string{"srv_000"}, System: config.Default(), Warmup: 20_000, Measure: 40_000}
}

// TestValidate walks the mode matrix: each cell is accepted or rejected
// with the rule that names it.
func TestValidate(t *testing.T) {
	cores := func(n int) func(*Spec) { return func(s *Spec) { s.System.Cores = n } }
	smt := func(s *Spec) { s.Tenants, s.System.SMT = []string{"srv_000", "srv_001"}, true }
	trace := func(s *Spec) { s.Tenants, s.Trace = nil, "t.itpt.gz" }
	shards := func(s *Spec) { s.Shards = 2 }
	phases := func(s *Spec) { s.Phases, s.Window = 2, 10_000 }
	fw := func(s *Spec) { s.FuncWarmup = 10_000 }
	for _, c := range []struct {
		name string
		mods []func(*Spec)
		want string // "" = valid
	}{
		{"single", nil, ""},
		{"smt", []func(*Spec){smt}, ""},
		{"trace", []func(*Spec){trace}, ""},
		{"cores", []func(*Spec){cores(4)}, ""},
		{"cores one tenant per core", []func(*Spec){cores(2), func(s *Spec) { s.Tenants = []string{"a", "b", "c"} }}, ""},
		{"shards", []func(*Spec){shards}, ""},
		{"phases", []func(*Spec){phases}, ""},
		{"one phase needs no window", []func(*Spec){func(s *Spec) { s.Phases = 1 }}, ""},
		{"func-warmup", []func(*Spec){fw}, ""},
		{"shards+func-warmup", []func(*Spec){shards, fw}, ""},
		{"phases+func-warmup", []func(*Spec){phases, fw}, ""},

		{"no workload", []func(*Spec){func(s *Spec) { s.Tenants = nil }}, "no workload"},
		{"trace and tenants", []func(*Spec){func(s *Spec) { s.Trace = "t" }}, "either a trace"},
		{"single-core batch", []func(*Spec){func(s *Spec) { s.Tenants = []string{"a", "b"} }}, "single-core run takes one workload"},
		{"smt batch", []func(*Spec){smt, func(s *Spec) { s.Tenants = append(s.Tenants, "x") }}, "-smt requires a single -workload"},
		{"smt+cores", []func(*Spec){smt, cores(2)}, "-smt is a single-core mode"},
		{"trace+cores", []func(*Spec){trace, cores(2)}, "recorded traces are single-stream"},
		{"trace+smt", []func(*Spec){trace, func(s *Spec) { s.System.SMT = true }}, "recorded traces are single-stream"},
		{"shards+phases", []func(*Spec){shards, phases}, "alternative parallel modes"},
		{"cores+shards", []func(*Spec){cores(2), shards}, "-shards splits one stream"},
		{"cores+phases", []func(*Spec){cores(2), phases}, "-sample-phases splits one stream"},
		{"cores+func-warmup", []func(*Spec){cores(2), fw}, "-func-warmup splits one stream"},
		{"smt+shards", []func(*Spec){smt, shards}, "no -trace or -smt"},
		{"trace+phases", []func(*Spec){trace, phases}, "no -trace or -smt"},
		{"func-warmup>=warmup", []func(*Spec){func(s *Spec) { s.FuncWarmup = s.Warmup }}, "detailed warmup suffix"},
		{"empty shard", []func(*Spec){func(s *Spec) { s.Shards, s.Measure = 4, 3 }}, "empty segments"},
		{"misaligned phases", []func(*Spec){phases, func(s *Spec) { s.Window = 7_000 }}, "not a multiple"},
		// An invalid machine fails its run, not validation.
		{"invalid machine", []func(*Spec){func(s *Spec) { s.System.HugePageFraction = 2 }}, ""},
	} {
		s := base()
		for _, m := range c.mods {
			m(&s)
		}
		err := s.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted, want %q", c.name, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		case err != nil && strings.Contains(err.Error(), "\n"):
			t.Errorf("%s: error %q spans lines", c.name, err)
		}
	}
}

// perturb changes every settable leaf under v, one at a time, calling
// check after each change and restoring the old value.
func perturb(t *testing.T, v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			perturb(t, v.Field(i), path+"."+v.Type().Field(i).Name, check)
		}
		return
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			perturb(t, v.Index(i), path+"["+string(rune('0'+i))+"]", check)
		}
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 3)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.25)
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: unhandled kind %s; teach perturb about it", path, v.Kind())
	}
	check(path)
	v.Set(old)
}

// TestKeyCoversEverySpecField: perturbing any leaf of SystemConfig, or
// any Spec field but the beacon and audit settings, changes Key — so a
// checkpoint can never hand back a different machine's result.
func TestKeyCoversEverySpecField(t *testing.T) {
	// Every field is live: Window counts only when Phases > 0.
	s := base()
	s.Shards, s.Phases, s.Window, s.FuncWarmup = 2, 2, 10_000, 5_000
	s.BeaconInterval = 1000
	want := s.Key()
	n := 0
	perturb(t, reflect.ValueOf(&s).Elem(), "Spec", func(path string) {
		n++
		got := s.Key()
		excluded := path == "Spec.BeaconInterval" || path == "Spec.Audit"
		switch {
		case excluded && got != want:
			t.Errorf("%s changes the key; robustness settings must not", path)
		case !excluded && got == want:
			t.Errorf("%s does not change the key", path)
		}
	})
	if n < 60 {
		t.Errorf("perturbed only %d leaves; the walk missed SystemConfig", n)
	}
	s.Tenants, s.Trace = nil, "t.itpt.gz"
	if s.Key() == want {
		t.Error("a trace replay shares its key with a catalogue run")
	}
}

// TestKeyNormalises: spellings of the same run share one key, and the
// key reads as tenants|policies|hash.
func TestKeyNormalises(t *testing.T) {
	a, b := base(), base()
	b.Shards, b.System.Cores, b.Window = 1, 1, 50_000
	if a.Key() != b.Key() {
		t.Errorf("Shards 0/1, Cores 0/1 and an unused Window should not change the key:\n%s\n%s", a.Key(), b.Key())
	}
	if k := base().Key(); !strings.HasPrefix(k, "srv_000|lru/lru/lru|") || len(k) != len("srv_000|lru/lru/lru|")+16 {
		t.Errorf("key %q is not tenants|stlb/l2c/llc|hash", k)
	}
}

// TestMetricsWindow: the default window is the adaptive controller's
// when the machine has one, else the paper's 1000 instructions.
func TestMetricsWindow(t *testing.T) {
	for _, c := range []struct {
		l2c    string
		window uint64
	}{{"lru", 20_000}, {"xptp", 20_000}, {"xptp", 0}, {"xptp-static", 20_000}, {"xptp", 5_000}} {
		cfg := config.Default()
		cfg.L2CPolicy, cfg.XPTP.WindowInstr = c.l2c, c.window
		m, err := sim.NewMachine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(1000)
		if ctrl := m.Controller(); ctrl != nil {
			want = uint64(ctrl.WindowInstr())
		}
		if got := MetricsWindow(cfg, 0); got != want {
			t.Errorf("L2C %s window %d: default metrics window %d, controller says %d", c.l2c, c.window, got, want)
		}
		if got := MetricsWindow(cfg, 777); got != 777 {
			t.Errorf("an explicit window must win, got %d", got)
		}
	}
}
