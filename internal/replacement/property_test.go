package replacement

import (
	"math/rand"
	"testing"

	"itpsim/internal/arch"
)

// setModel is a minimal fully-associative cache set driven through the
// Policy interface — the harness the property tests exercise policies
// against, independent of the cache machinery.
type setModel struct {
	p   Policy
	set *Set
}

func newSetModel(p Policy, ways int) *setModel {
	return &setModel{p: p, set: newPolicySet(p, ways)}
}

// access touches tag, filling on miss exactly like cache.Cache does.
func (m *setModel) access(tag uint32) {
	acc := &arch.Access{Addr: arch.Addr(tag) << 6}
	for i := range m.set.Tags {
		if m.set.Valid(i) && m.set.Tags[i] == tag {
			m.p.OnHit(0, m.set, i, acc)
			return
		}
	}
	way := m.p.Victim(0, m.set, acc)
	if m.set.Valid(way) {
		m.p.OnEvict(0, m.set, way)
	}
	m.set.Tags[way] = tag
	m.set.Lines[way] = Line{}
	m.p.OnFill(0, m.set, way, acc)
}

func (m *setModel) contains(tag uint32) bool {
	for i := range m.set.Tags {
		if m.set.Valid(i) && m.set.Tags[i] == tag {
			return true
		}
	}
	return false
}

// TestLRUStackInclusion checks the defining property of stack algorithms
// (Mattson et al.): under any access stream, the contents of a smaller
// LRU cache are a subset of a larger one's. A policy bug that breaks
// recency ordering almost always breaks inclusion.
func TestLRUStackInclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		small := newSetModel(NewLRU(), 4)
		large := newSetModel(NewLRU(), 8)
		for step := 0; step < 2000; step++ {
			tag := uint32(rng.Intn(24)) // working set ~3x the small cache
			small.access(tag)
			large.access(tag)
			if !CheckStackInvariant(small.set.Stack) || !CheckStackInvariant(large.set.Stack) {
				t.Fatalf("trial %d step %d: stack invariant broken", trial, step)
			}
			for i := range small.set.Tags {
				if small.set.Valid(i) && !large.contains(small.set.Tags[i]) {
					t.Fatalf("trial %d step %d: tag %d in 4-way but not 8-way LRU (inclusion violated)",
						trial, step, small.set.Tags[i])
				}
			}
		}
	}
}

// TestPoliciesPreserveStackInvariant fuzzes every stack-based baseline
// with random hit/miss streams and checks the position permutation never
// corrupts, and Victim never points outside the set.
func TestPoliciesPreserveStackInvariant(t *testing.T) {
	for _, name := range []string{"lru", "random", "ptp", "emissary"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, err := FromName(name, 1, 8, 42)
			if err != nil {
				t.Fatal(err)
			}
			m := newSetModel(p, 8)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 5000; step++ {
				m.access(uint32(rng.Intn(20)))
				if !CheckStackInvariant(m.set.Stack) {
					t.Fatalf("step %d: stack invariant broken", step)
				}
			}
		})
	}
}

// TestVictimAlwaysInRange drives every named policy (stack-based or not)
// through random streams, asserting Victim stays in [0, ways) — the
// contract the cache indexes with, unchecked at runtime.
func TestVictimAlwaysInRange(t *testing.T) {
	names := []string{"lru", "random", "srrip", "brrip", "drrip", "ship",
		"mockingjay", "hawkeye", "ptp", "tdrrip", "tship", "emissary"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			const ways = 8
			p, err := FromName(name, 16, ways, 99)
			if err != nil {
				t.Fatal(err)
			}
			set := newPolicySet(p, ways)
			rng := rand.New(rand.NewSource(3))
			for step := 0; step < 3000; step++ {
				tag := uint32(rng.Intn(32))
				acc := &arch.Access{Addr: arch.Addr(tag) << 6, PC: uint64(rng.Intn(8) * 4)}
				hit := -1
				for i := range set.Tags {
					if set.Valid(i) && set.Tags[i] == tag {
						hit = i
						break
					}
				}
				if hit >= 0 {
					p.OnHit(0, set, hit, acc)
					continue
				}
				way := p.Victim(0, set, acc)
				if way < 0 || way >= ways {
					t.Fatalf("step %d: victim %d out of range [0,%d)", step, way, ways)
				}
				if set.Valid(way) {
					p.OnEvict(0, set, way)
				}
				set.Tags[way] = tag
				l := &set.Lines[way]
				*l = Line{RRPV: l.RRPV}
				l.SetPTE(rng.Intn(8) == 0)
				l.SetDataPTE(rng.Intn(16) == 0)
				l.SetSTLBMiss(rng.Intn(4) == 0)
				p.OnFill(0, set, way, acc)
			}
		})
	}
}
