package core

import (
	"math/rand"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/config"
	"itpsim/internal/replacement"
	"itpsim/internal/tlb"
)

// randomSet builds a full cache set with a random recency permutation and
// random data-PTE marking.
func randomSet(rng *rand.Rand, ways int, pteProb float64) *replacement.Set {
	set := &replacement.Set{Tags: make([]uint32, ways), Stack: make([]uint8, ways), Lines: make([]replacement.Line, ways)}
	perm := rng.Perm(ways)
	for i := range set.Tags {
		set.Tags[i] = uint32(i)
		set.Stack[i] = uint8(perm[i])
		set.Lines[i].SetDataPTE(rng.Float64() < pteProb)
	}
	return set
}

// TestXPTPVictimProperties checks Figure 6's eviction rules hold on
// randomly generated sets for every K:
//
//   - the victim is always a valid way index;
//   - an invalid way, when present, is always preferred;
//   - when the victim is not the true-LRU block, it never holds a data
//     PTE and sits fewer than K positions above the stack bottom;
//   - when the victim IS the true-LRU block despite a non-data-PTE
//     alternative existing, that alternative was >= K positions up.
func TestXPTPVictimProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range []int{1, 2, 4, 8, 16} {
		pol := NewXPTP(config.XPTPParams{K: k})
		for trial := 0; trial < 2000; trial++ {
			ways := 4 << rng.Intn(3) // 4, 8, 16
			set := randomSet(rng, ways, rng.Float64())
			v := pol.Victim(0, set, nil)
			if v < 0 || v >= ways {
				t.Fatalf("K=%d: victim %d out of range", k, v)
			}

			lru, lruDepth := -1, -1
			alt, altDepth := -1, -1
			for i := range set.Lines {
				pos := int(set.Stack[i])
				if pos > lruDepth {
					lru, lruDepth = i, pos
				}
				if !set.Lines[i].IsDataPTE() && pos > altDepth {
					alt, altDepth = i, pos
				}
			}
			altFromBottom := (ways - 1) - altDepth
			switch {
			case v == lru:
				// LRU eviction is only allowed when no alternative
				// exists or the alternative is too recent (>= K up).
				if alt >= 0 && alt != lru && altFromBottom < k {
					t.Fatalf("K=%d ways=%d: evicted LRU (data-PTE=%v) though alt at %d positions up",
						k, ways, set.Lines[lru].IsDataPTE(), altFromBottom)
				}
			default:
				if set.Lines[v].IsDataPTE() {
					t.Fatalf("K=%d: alternative victim holds a data PTE", k)
				}
				if v != alt {
					t.Fatalf("K=%d: skipped past the deepest non-data-PTE block", k)
				}
				if altFromBottom >= k {
					t.Fatalf("K=%d: alternative %d positions up exceeds the skip budget", k, altFromBottom)
				}
			}
		}
	}
}

func TestXPTPPrefersInvalidWay(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pol := NewXPTP(config.XPTPParams{K: 8})
	for trial := 0; trial < 500; trial++ {
		set := randomSet(rng, 8, 0.5)
		dead := rng.Intn(8)
		set.Tags[dead] = replacement.NoTag
		if v := pol.Victim(0, set, nil); set.Valid(v) {
			t.Fatalf("victim %d is valid though way %d was free", v, dead)
		}
	}
}

// TestAdaptiveXPTPDisabledIsLRU checks the Section 4.3.1 degeneration:
// with the enable signal low, xPTP's victim is exactly the true-LRU way
// on any set, data PTE or not.
func TestAdaptiveXPTPDisabledIsLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	enabled := false
	pol := NewAdaptiveXPTP(config.XPTPParams{K: 8}, func() bool { return enabled })
	for trial := 0; trial < 1000; trial++ {
		set := randomSet(rng, 8, 0.7)
		want := replacement.StackLRUVictim(set)
		if v := pol.Victim(0, set, nil); v != want {
			t.Fatalf("disabled xPTP chose %d, plain LRU chooses %d", v, want)
		}
	}
	// Flipping the signal re-engages protection on the same sets.
	enabled = true
	protective := false
	for trial := 0; trial < 1000; trial++ {
		set := randomSet(rng, 8, 0.7)
		if pol.Victim(0, set, nil) != replacement.StackLRUVictim(set) {
			protective = true
			break
		}
	}
	if !protective {
		t.Fatal("enabled xPTP never deviated from LRU across 1000 random sets")
	}
}

// itpModel drives the iTP policy through a single fully-associative TLB
// set with the simulator's miss/fill protocol.
type itpModel struct {
	p   *ITP
	set *tlb.Set
}

func (m *itpModel) touch(vpn uint64, class arch.Class) {
	req := &tlb.Request{VPN: vpn, Class: class}
	for i := range m.set.Entries {
		if m.set.Entries[i].Valid && m.set.Entries[i].VPN == vpn {
			m.p.OnHit(0, m.set, i, req)
			return
		}
	}
	way := m.p.Victim(0, m.set, req)
	m.set.Entries[way] = tlb.Entry{Valid: true, VPN: vpn, Class: class}
	m.p.OnFill(0, m.set, way, req)
}

// TestITPVictimClassProperty checks the Section 4.1 victim behaviour over
// random mixed streams: the victim is always the deepest-stacked entry
// (plain LRU eviction), and — because data inserts at LRUpos while
// instruction entries insert N below MRU — an instruction entry is never
// victimised while a valid data entry sits deeper in the stack.
func TestITPVictimClassProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	p := NewITP(config.Default().ITP)
	m := &itpModel{p: p, set: newTLBSet(16)}
	for step := 0; step < 20000; step++ {
		vpn := uint64(rng.Intn(48) + 1)
		class := arch.DataClass
		if rng.Intn(3) == 0 {
			class = arch.InstrClass
		}

		req := &tlb.Request{VPN: vpn, Class: class}
		v := p.Victim(0, m.set, req)
		deepest := -1
		for i := range m.set.Entries {
			if deepest < 0 || m.set.Stack[i] > m.set.Stack[deepest] {
				deepest = i
			}
		}
		full := true
		for i := range m.set.Entries {
			if !m.set.Entries[i].Valid {
				full = false
			}
		}
		if full {
			if v != deepest {
				t.Fatalf("step %d: victim %d (stack %d) is not the LRU entry %d (stack %d)",
					step, v, m.set.Stack[v], deepest, m.set.Stack[deepest])
			}
			if m.set.Entries[v].Class == arch.InstrClass {
				for i := range m.set.Entries {
					if m.set.Entries[i].Valid && m.set.Entries[i].Class == arch.DataClass && m.set.Stack[i] > m.set.Stack[v] {
						t.Fatalf("step %d: victimised instruction entry above a data entry", step)
					}
				}
			}
		}

		m.touch(vpn, class)
		if !replacement.CheckStackInvariant(m.set.Stack) {
			t.Fatalf("step %d: stack invariant broken", step)
		}
	}
}

// TestITPInsertionPositions pins the Figure 5 insertion/promotion stack
// positions directly.
func TestITPInsertionPositions(t *testing.T) {
	params := config.Default().ITP
	p := NewITP(params)
	const ways = 16
	set := newTLBSet(ways)
	for i := range set.Entries {
		set.Entries[i].Valid = true
		set.Entries[i].VPN = uint64(i + 1)
		set.Entries[i].Class = arch.DataClass
	}

	// Data fill lands at LRUpos.
	p.OnFill(0, set, 3, &tlb.Request{Class: arch.DataClass})
	if got := int(set.Stack[3]); got != ways-1 {
		t.Fatalf("data fill at stack %d, want LRUpos %d", got, ways-1)
	}
	// Instruction fill lands N below MRU with Freq reset.
	set.Entries[5].Freq = 3
	set.Entries[5].Class = arch.InstrClass
	p.OnFill(0, set, 5, &tlb.Request{Class: arch.InstrClass})
	if got := int(set.Stack[5]); got != params.N {
		t.Fatalf("instruction fill at stack %d, want N=%d", got, params.N)
	}
	if set.Entries[5].Freq != 0 {
		t.Fatalf("instruction fill kept Freq=%d, want reset", set.Entries[5].Freq)
	}
	// Non-saturated instruction hit repromotes to N and increments Freq.
	p.OnHit(0, set, 5, &tlb.Request{Class: arch.InstrClass})
	if got := int(set.Stack[5]); got != params.N {
		t.Fatalf("instruction hit at stack %d, want N=%d", got, params.N)
	}
	if set.Entries[5].Freq != 1 {
		t.Fatalf("instruction hit Freq=%d, want 1", set.Entries[5].Freq)
	}
	// Saturated instruction hit reaches MRU.
	set.Entries[5].Freq = uint8(1<<params.FreqBits - 1)
	p.OnHit(0, set, 5, &tlb.Request{Class: arch.InstrClass})
	if got := int(set.Stack[5]); got != 0 {
		t.Fatalf("saturated instruction hit at stack %d, want MRU", got)
	}
	// Data hit moves to LRUpos+M.
	p.OnHit(0, set, 7, &tlb.Request{Class: arch.DataClass})
	if got, want := int(set.Stack[7]), ways-1-params.M; got != want {
		t.Fatalf("data hit at stack %d, want LRUpos+M=%d", got, want)
	}
}
