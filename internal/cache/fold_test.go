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
// or not: fifteen words per way in set/way order, ETA from Mockingjay's
// array, then the MSHR file. HashState must equal it on every cache.
func referenceFold(c *Cache) uint64 {
	h := arch.NewStateHash()
	etas := c.etas()
	for i, tag := range c.tags {
		valid := tag != replacement.NoTag
		if !valid {
			tag = 0
		}
		var eta uint64
		if etas != nil {
			eta = etas[i]
		}
		l := &c.lines[i]
		h.Bool(valid)
		h.Bool(l.Dirty())
		h.Word(uint64(tag))
		h.Word(l.PC)
		h.Word(uint64(l.Kind))
		h.Bool(l.IsPTE())
		h.Bool(l.IsDataPTE())
		h.Bool(l.STLBMiss())
		h.Word(uint64(l.Thread))
		h.Bool(l.Prefetched())
		h.Word(uint64(c.stack[i]))
		h.Word(uint64(l.RRPV))
		h.Word(uint64(l.Sig))
		h.Bool(l.Reused)
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

// TestHashStateMatchesReferenceFold: LRU, xPTP, SHiP and Mockingjay
// caches under random traffic, with empty ways in many sets, fold exactly
// like the per-field reference after every burst; between them their
// lines carry non-zero RRPV, Sig, Reused and ETA. An empty way carrying a
// non-zero line, or a non-zero ETA, leaves the zero-word path and still
// folds exactly, and differently from the same cache with that way zero.
func TestHashStateMatchesReferenceFold(t *testing.T) {
	cfg := config.CacheConfig{Sets: 64, Ways: 8, Latency: 5, MSHRs: 8}
	var rrpv, sig, reused, eta bool
	for _, name := range []string{"lru", "xptp", "ship", "mockingjay"} {
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
			sig = sig || l.Sig != 0
			reused = reused || l.Reused
		}
		for _, e := range c.etas() {
			eta = eta || e != 0
		}
		if empty == 0 {
			t.Fatalf("%s: the traffic left no way empty", name)
		}

		// Annotate one empty way, then the ETA of another (Mockingjay
		// only): each takes the per-field path.
		before := cacheHash(c)
		way := emptyWay(c)
		c.lines[way].RRPV = 1
		if got, want := cacheHash(c), referenceFold(c); got != want || got == before {
			t.Fatalf("%s: empty way with RRPV 1 folds %#x, reference %#x, zero line %#x", name, got, want, before)
		}
		c.lines[way] = replacement.Line{}
		if etas := c.etas(); etas != nil {
			etas[way] = 1
			if got, want := cacheHash(c), referenceFold(c); got != want || got == before {
				t.Fatalf("%s: empty way with ETA 1 folds %#x, reference %#x, zero ETA %#x", name, got, want, before)
			}
			etas[way] = 0
		}
		if got := cacheHash(c); got != before {
			t.Fatalf("%s: restored cache folds %#x, before %#x", name, got, before)
		}
		c.Release()
	}
	if !rrpv || !sig || !reused || !eta {
		t.Fatalf("traffic left fields at zero: RRPV set %v, Sig %v, Reused %v, ETA %v", rrpv, sig, reused, eta)
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
// a control byte (bit 0 valid; bits 1–5 Dirty, IsPTE, IsDataPTE,
// STLBMiss, Prefetched; bit 6 Reused), the stack position, Kind, Thread,
// RRPV, a 2-byte Sig, one spare byte, a 4-byte tag, four spare bytes,
// then 8-byte PC and ETA.
const foldWayBytes = 32

// setWay overwrites way i of c, and its ETA when etas is non-nil, from w.
func setWay(c *Cache, etas []uint64, i int, w *[foldWayBytes]byte) {
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
		PC:     binary.LittleEndian.Uint64(w[16:]),
		Sig:    binary.LittleEndian.Uint16(w[5:]),
		Kind:   arch.Kind(w[2]),
		Thread: w[3],
		RRPV:   w[4],
		Reused: ctl&0x40 != 0,
	}
	l.SetDirty(ctl&0x02 != 0)
	l.SetPTE(ctl&0x04 != 0)
	l.SetDataPTE(ctl&0x08 != 0)
	l.SetSTLBMiss(ctl&0x10 != 0)
	l.SetPrefetched(ctl&0x20 != 0)
	if etas != nil {
		etas[i] = binary.LittleEndian.Uint64(w[24:])
	}
}

// FuzzCacheFold sets every way of a small Mockingjay cache from arbitrary
// bytes — valid and empty ways, every flag bit, any stack byte and ETA,
// empty ways with zero and non-zero state — and checks HashState against
// the per-field reference fold. Ways past the end of the input are
// empty and zero.
func FuzzCacheFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x7f, 3, 1, 1, 2, 0x34, 0x12, 0, 0x40})
	// An empty way with only its ETA set, after a valid way.
	way := make([]byte, 2*foldWayBytes)
	way[0], way[8] = 1, 0x10
	way[foldWayBytes+24] = 9
	f.Add(way)
	cfg := config.CacheConfig{Sets: 4, Ways: 4, Latency: 5, MSHRs: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New("l2c", cfg, replacement.NewMockingjay(cfg.Sets, cfg.Ways), &fixedLevel{latency: 100}, nil)
		defer c.Release()
		etas := c.etas()
		for i := range c.tags {
			var w [foldWayBytes]byte
			data = data[copy(w[:], data):]
			setWay(c, etas, i, &w)
		}
		if got, want := cacheHash(c), referenceFold(c); got != want {
			t.Fatalf("HashState %#x, reference fold %#x", got, want)
		}
	})
}
