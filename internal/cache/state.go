package cache

import (
	"itpsim/internal/arch"
	"itpsim/internal/audit"
	"itpsim/internal/replacement"
)

// HashState implements arch.StateHasher: the full tag/metadata array in
// set/way order plus the MSHR file, so two caches hash equal iff their
// contents, replacement state, and in-flight misses are identical. Each
// way folds fifteen words: the signature from the Sigs column and the
// ETA, last, from the ETAs column, each 0 when the policy keeps no such
// column. An empty way folds tag 0: a way is never emptied after its
// first fill, so an empty way has never held a block, and the empty-way
// audit rule holds the rest of its line and its columns at zero. Such a
// way folds as ten zero words, its stack position and four zero words;
// only a way that breaks that rule takes the per-field path.
func (c *Cache) HashState(h *arch.StateHash) {
	for i, tag := range c.tags {
		l := &c.lines[i]
		var sig uint16
		var eta uint64
		if c.sigs != nil {
			sig = c.sigs[i]
		}
		if c.etas != nil {
			eta = c.etas[i]
		}
		valid := tag != replacement.NoTag
		if !valid {
			if *l == (replacement.Line{}) && sig == 0 && eta == 0 {
				h.Zeros(10)
				h.Word(uint64(c.stack[i]))
				h.Zeros(4)
				continue
			}
			tag = 0
		}
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
		h.Word(uint64(sig))
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
}

// mshrLeakHorizon is how far past the audit clock an in-flight MSHR's
// completion may sit before it is judged leaked. The deepest legal chain
// (every MSHR busy, DRAM row misses, walker queueing) resolves within
// thousands of cycles; an entry pointing 100M cycles out means latency
// arithmetic ran away or a completion was lost.
const mshrLeakHorizon = 100_000_000

// AuditState implements audit.Checkable. Invariants:
//
//   - stack-permutation: each set's stack positions form a permutation;
//   - empty-way: a way whose tag is NoTag holds a zero Line and a zero
//     entry in every column the policy keeps, which is what HashState
//     folds for it (a policy must not age or annotate empty ways);
//   - duplicate-block: no two valid ways of a set hold the same
//     (tag, Thread);
//   - pte-bits: IsDataPTE implies IsPTE (xPTP's Type bit qualifies a PTE
//     block, it cannot exist without one), and PTE blocks never carry the
//     STLBMiss demand bit (the fill path strips it);
//   - mshr-leak: no in-flight entry completes beyond the leak horizon,
//     and no two live entries track the same (block, thread) — a
//     duplicate would double-fill.
func (c *Cache) AuditState(r *audit.Report) {
	for si := 0; si < c.cfg.Sets; si++ {
		set := c.setAt(si)
		if !replacement.CheckStackInvariant(set.Stack) {
			r.Violatef("stack-permutation", "%s set %d: stack positions are not a permutation", c.name, si)
		}
		for a, tag := range set.Tags {
			l := &set.Lines[a]
			if tag == replacement.NoTag {
				if *l != (replacement.Line{}) || set.Sigs != nil && set.Sigs[a] != 0 || set.ETAs != nil && set.ETAs[a] != 0 {
					r.Violatef("empty-way", "%s set %d way %d: empty way carries line state", c.name, si, a)
				}
				continue
			}
			if l.IsDataPTE() && !l.IsPTE() {
				r.Violatef("pte-bits", "%s set %d way %d: IsDataPTE without IsPTE", c.name, si, a)
			}
			if l.IsPTE() && l.STLBMiss() {
				r.Violatef("pte-bits", "%s set %d way %d: PTE block carries the STLBMiss demand bit", c.name, si, a)
			}
			for b := a + 1; b < len(set.Tags); b++ {
				if set.Tags[b] == tag && set.Lines[b].Thread == l.Thread {
					r.Violatef("duplicate-block", "%s set %d: ways %d and %d both hold block %#x",
						c.name, si, a, b, tag)
				}
			}
		}
	}
	for i := range c.mshrs {
		e := &c.mshrs[i]
		if !e.valid || e.readyAt <= r.Now {
			continue
		}
		if e.readyAt > r.Now+mshrLeakHorizon {
			r.Violatef("mshr-leak", "%s mshr %d: block %#x completes at %d, %d cycles past now=%d",
				c.name, i, e.block, e.readyAt, e.readyAt-r.Now, r.Now)
		}
		for j := i + 1; j < len(c.mshrs); j++ {
			o := &c.mshrs[j]
			if o.valid && o.readyAt > r.Now && o.block == e.block && o.thread == e.thread {
				r.Violatef("mshr-leak", "%s mshrs %d and %d both track block %#x in flight",
					c.name, i, j, e.block)
			}
		}
	}
}
