package cache

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/core"
	"itpsim/internal/replacement"
)

// referenceFold is the per-field fold HashState makes of every way, empty
// or not: fifteen words per way in set/way order, signature and ETA from
// the columns (0 when the policy keeps none), then the MSHR file.
// HashState must equal it on every cache.
func referenceFold(c *Cache) uint64 {
	h := arch.NewStateHash()
	for i, tag := range c.tags {
		valid := tag != replacement.NoTag
		if !valid {
			tag = 0
		}
		var sig, eta uint64
		if c.sigs != nil {
			sig = uint64(c.sigs[i])
		}
		if c.etas != nil {
			eta = c.etas[i]
		}
		l := &c.lines[i]
		h.Bool(valid)
		h.Bool(l.Dirty())
		h.Word(uint64(tag))
		h.Word(uint64(l.PC))
		h.Word(uint64(l.Kind))
		h.Bool(l.IsPTE())
		h.Bool(l.IsDataPTE())
		h.Bool(l.STLBMiss())
		h.Word(uint64(l.Thread))
		h.Bool(l.Prefetched())
		h.Word(uint64(c.stack[i]))
		h.Word(uint64(l.RRPV))
		h.Word(sig)
		h.Bool(l.Reused())
		h.Word(eta)
	}
	for i := range c.mshrs {
		e := &c.mshrs[i]
		h.Bool(e.valid)
		h.Word(e.block)
		h.Word(uint64(e.thread))
		h.Word(e.readyAt)
	}
	return h.Sum()
}

// foldCache builds a cache of cfg under the named policy; "xptp" is the
// paper's always-on xPTP.
func foldCache(t *testing.T, name string, cfg config.CacheConfig) *Cache {
	t.Helper()
	if name == "xptp" {
		return New("l2c", cfg, core.NewXPTP(config.Default().XPTP), &fixedLevel{latency: 100}, nil)
	}
	pol, err := replacement.FromName(name, cfg.Sets, cfg.Ways, 1)
	if err != nil {
		t.Fatal(err)
	}
	return New("l2c", cfg, pol, &fixedLevel{latency: 100}, nil)
}

// foldTraffic sends n random accesses to c. Set s sees 1+s%12 distinct
// blocks, so sets with fewer blocks than ways keep empty ways and the
// rest evict. The mix of loads, stores, prefetches, STLB-missing demands
// and instruction and data PTE walks from two threads sets every flag.
func foldTraffic(c *Cache, sets, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		s := rng.Intn(sets)
		block := uint64(s + sets*rng.Intn(1+s%12))
		acc := &arch.Access{Addr: arch.Addr(block << arch.BlockBits), PC: uint64(rng.Intn(16)) * 0x44, Thread: uint8(rng.Intn(2))}
		switch rng.Intn(6) {
		case 0:
			acc.Kind = arch.Store
		case 1:
			acc.Kind = arch.Prefetch
		case 2:
			acc.Kind, acc.IsPTE, acc.Class = arch.PTW, true, arch.Class(rng.Intn(2))
		case 3:
			acc.Kind, acc.STLBMiss = arch.Load, true
		default:
			acc.Kind = arch.Load
		}
		c.Access(uint64(i)*50, acc)
	}
}

// TestHashStateMatchesReferenceFold: LRU, xPTP, SHiP, Hawkeye and
// Mockingjay caches under random traffic, with empty ways in many sets,
// fold exactly like the per-field reference after every burst; between
// them their lines carry non-zero RRPV and Reused and their columns
// non-zero signatures and ETAs. An empty way carrying a non-zero line,
// signature or ETA leaves the zero-word path and still folds exactly,
// and differently from the same cache with that way zero.
func TestHashStateMatchesReferenceFold(t *testing.T) {
	cfg := config.CacheConfig{Sets: 64, Ways: 8, Latency: 5, MSHRs: 8}
	var rrpv, sig, reused, eta bool
	for _, name := range []string{"lru", "xptp", "ship", "hawkeye", "mockingjay"} {
		c := foldCache(t, name, cfg)
		rng := rand.New(rand.NewSource(7))
		for burst := 0; burst < 8; burst++ {
			foldTraffic(c, cfg.Sets, 500, rng)
			if got, want := cacheHash(c), referenceFold(c); got != want {
				t.Fatalf("%s, burst %d: HashState %#x, reference fold %#x", name, burst, got, want)
			}
		}
		empty := 0
		for i, tag := range c.tags {
			if tag == replacement.NoTag {
				empty++
				continue
			}
			l := &c.lines[i]
			rrpv = rrpv || l.RRPV != 0
			reused = reused || l.Reused()
		}
		for _, s := range c.sigs {
			sig = sig || s != 0
		}
		for _, e := range c.etas {
			eta = eta || e != 0
		}
		if empty == 0 {
			t.Fatalf("%s: the traffic left no way empty", name)
		}

		// Annotate one empty way's line, then its signature and ETA
		// where the policy keeps them: each takes the per-field path.
		before := cacheHash(c)
		way := emptyWay(c)
		type annotation struct {
			state string
			set   func(v uint8)
		}
		annotate := []annotation{{"RRPV", func(v uint8) { c.lines[way].RRPV = v }}}
		if c.sigs != nil {
			annotate = append(annotate, annotation{"signature", func(v uint8) { c.sigs[way] = uint16(v) }})
		}
		if c.etas != nil {
			annotate = append(annotate, annotation{"ETA", func(v uint8) { c.etas[way] = uint64(v) }})
		}
		for _, a := range annotate {
			a.set(1)
			if got, want := cacheHash(c), referenceFold(c); got != want || got == before {
				t.Fatalf("%s: empty way with %s 1 folds %#x, reference %#x, zero way %#x", name, a.state, got, want, before)
			}
			a.set(0)
		}
		if got := cacheHash(c); got != before {
			t.Fatalf("%s: restored cache folds %#x, before %#x", name, got, before)
		}
		c.Release()
	}
	if !rrpv || !sig || !reused || !eta {
		t.Fatalf("traffic left fields at zero: RRPV set %v, signature %v, Reused %v, ETA %v", rrpv, sig, reused, eta)
	}
}

// emptyWay returns the flat index of the first empty way of c.
func emptyWay(c *Cache) int {
	for i, tag := range c.tags {
		if tag == replacement.NoTag {
			return i
		}
	}
	panic("no empty way")
}

// foldWayBytes is how many input bytes FuzzCacheFold spends on one way:
// a control byte (bit 0 valid; bits 1–6 Dirty, IsPTE, IsDataPTE,
// STLBMiss, Prefetched, Reused), the stack position, Kind, Thread,
// RRPV, a 2-byte signature, one spare byte, a 4-byte tag, a 4-byte PC,
// then an 8-byte ETA. The signature and ETA land in their columns when
// the cache keeps them.
const foldWayBytes = 24

// foldPolicies are the policies FuzzCacheFold's first byte picks among:
// no columns, a signature column, and both columns.
var foldPolicies = []string{"lru", "ship", "mockingjay"}

// setWay overwrites way i of c, and its column entries where c keeps
// columns, from w.
func setWay(c *Cache, i int, w *[foldWayBytes]byte) {
	ctl := w[0]
	tag := replacement.NoTag
	if ctl&1 != 0 {
		if tag = binary.LittleEndian.Uint32(w[8:]); tag == replacement.NoTag {
			tag = 0
		}
	}
	c.tags[i], c.stack[i] = tag, w[1]
	l := &c.lines[i]
	*l = replacement.Line{
		PC:     binary.LittleEndian.Uint32(w[12:]),
		Kind:   arch.Kind(w[2]),
		Thread: w[3],
		RRPV:   w[4],
	}
	l.SetDirty(ctl&0x02 != 0)
	l.SetPTE(ctl&0x04 != 0)
	l.SetDataPTE(ctl&0x08 != 0)
	l.SetSTLBMiss(ctl&0x10 != 0)
	l.SetPrefetched(ctl&0x20 != 0)
	l.SetReused(ctl&0x40 != 0)
	if c.sigs != nil {
		c.sigs[i] = binary.LittleEndian.Uint16(w[5:])
	}
	if c.etas != nil {
		c.etas[i] = binary.LittleEndian.Uint64(w[16:])
	}
}

// FuzzCacheFold sets every way of a small cache from arbitrary bytes —
// valid and empty ways, every flag bit, any stack byte, signature and
// ETA, empty ways with zero and non-zero state — and checks HashState
// against the per-field reference fold. The first byte picks the policy
// and so the columns the cache keeps (foldPolicies). Ways past the end
// of the input are empty and zero.
func FuzzCacheFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0x7f, 3, 1, 1, 2, 0x34, 0x12, 0, 0x40})
	// An empty way with only its ETA set, after a valid way.
	way := make([]byte, 1+2*foldWayBytes)
	way[0], way[1], way[1+8] = 2, 1, 0x10
	way[1+foldWayBytes+16] = 9
	f.Add(way)
	// The same under SHiP, with the empty way's signature set instead.
	way = make([]byte, 1+2*foldWayBytes)
	way[0], way[1], way[1+8] = 1, 1, 0x10
	way[1+foldWayBytes+5] = 9
	f.Add(way)
	cfg := config.CacheConfig{Sets: 4, Ways: 4, Latency: 5, MSHRs: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		policy := foldPolicies[0]
		if len(data) > 0 {
			policy, data = foldPolicies[int(data[0])%len(foldPolicies)], data[1:]
		}
		c := newPolicyCache(cfg, policy)
		defer c.Release()
		for i := range c.tags {
			var w [foldWayBytes]byte
			data = data[copy(w[:], data):]
			setWay(c, i, &w)
		}
		if got, want := cacheHash(c), referenceFold(c); got != want {
			t.Fatalf("%s: HashState %#x, reference fold %#x", policy, got, want)
		}
	})
}
