// Package tlb implements the TLB hierarchy structures: set-associative
// TLBs with exact recency stacks (the substrate iTP's insertion and
// promotion rules are defined on, moved by the caches' stack kernel),
// multi-page-size lookup, and the TLB-side baseline policies LRU and
// CHiRP. A split STLB (Section 6.6) is two TLBs, one per translation
// class.
package tlb

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/pool"
	"itpsim/internal/replacement"
)

// Entry is one TLB entry plus the metadata iTP adds: the Type bit
// (Class) and the saturating Freq counter (Section 4.1.3's 4 extra bits).
// The page numbers come first and the one-byte fields last, so an entry
// packs into 24 bytes. Its recency-stack position lives beside it, in
// the TLB's stack array.
type Entry struct {
	VPN      uint64 // virtual page number (in units of its own page size)
	PPN      uint64 // physical page number
	Sig      uint16 // CHiRP signature (policy state)
	Valid    bool
	PageBits uint8 // arch.PageBits4K or arch.PageBits2M
	Class    arch.Class
	Thread   uint8

	// Policy state.
	Freq   uint8 // iTP frequency counter
	Reused bool
}

// Set is a policy's view of one TLB set: way w holds Entries[w] at exact
// recency-stack position Stack[w] (0 = MRU). Both slices are the set's
// part of the TLB's flat arrays, so they are the only copy of its state,
// and the replacement package's stack kernel runs on Stack directly.
type Set struct {
	Entries []Entry
	Stack   []uint8
}

// Request carries the context a policy sees on insertion/promotion.
type Request struct {
	VPN      uint64
	PC       uint64
	Class    arch.Class
	Thread   uint8
	PageBits uint8
}

// Policy decides TLB victims and stack movement, mirroring the cache-side
// replacement.Policy shape.
type Policy interface {
	Name() string
	Victim(setIdx int, set *Set, req *Request) int
	OnFill(setIdx int, set *Set, way int, req *Request)
	OnHit(setIdx int, set *Set, way int, req *Request)
	OnEvict(setIdx int, set *Set, way int)
}

// InvalidWay returns an invalid way with the deepest stack position, or -1.
func InvalidWay(s *Set) int {
	best, bestStack := -1, -1
	for w := range s.Entries {
		if !s.Entries[w].Valid && int(s.Stack[w]) > bestStack {
			best, bestStack = w, int(s.Stack[w])
		}
	}
	return best
}

// StackLRUVictim returns the way at the stack bottom, invalid ways first.
func StackLRUVictim(s *Set) int {
	if w := InvalidWay(s); w >= 0 {
		return w
	}
	return replacement.StackPosOf(s.Stack, len(s.Stack)-1)
}

// TLB is a set-associative translation lookaside buffer supporting mixed
// 4KB and 2MB entries (both sizes index with their own VPN bits). It
// keeps its sets the way a cache does: every way of every set in flat
// arrays, set si owning [si*ways, (si+1)*ways) of each.
type TLB struct {
	name string
	// sets holds one view per set over the flat arrays, built once by
	// New; policies receive &sets[si].
	sets    []Set
	setMask uint64
	policy  Policy

	// req is the scratch request record Lookup/Insert hand to the policy.
	// Policies receive it by pointer through the Policy interface — which
	// would heap-allocate a stack local on every access — and never retain
	// it past the call, so one per-TLB scratch makes the hot path
	// allocation-free.
	req Request

	// store owns the flat arrays and sets; Release hands it back to
	// stores.
	store *storage
}

// storage is one TLB's flat arrays and its per-set views over them. It
// outlives its TLB: Release returns it to stores under its entry count,
// and the next New of that many entries takes it from there.
type storage struct {
	entries []Entry
	stack   []uint8
	sets    []Set
}

// stores recycles released TLBs' storage, keyed by sets×ways.
var stores pool.Keyed[*storage]

// New creates a TLB with the given geometry and replacement policy. Its
// arrays come from the pool when a released TLB with as many entries
// left some there; New clears recycled entries, points the views at the
// new geometry's sets and resets every stack to the identity, so
// recycled arrays start exactly as new ones.
func New(name string, nsets, ways int, policy Policy) *TLB {
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("tlb %s: sets must be a positive power of two, got %d", name, nsets))
	}
	n := nsets * ways
	sto, ok := stores.Get(n)
	if !ok {
		sto = &storage{entries: make([]Entry, n), stack: make([]uint8, n)}
	} else {
		clear(sto.entries)
	}
	if cap(sto.sets) < nsets {
		sto.sets = make([]Set, nsets)
	}
	sto.sets = sto.sets[:nsets]
	for si := range sto.sets {
		lo, hi := si*ways, (si+1)*ways
		sto.sets[si] = Set{Entries: sto.entries[lo:hi:hi], Stack: sto.stack[lo:hi:hi]}
		replacement.InitStack(sto.sets[si].Stack)
	}
	return &TLB{
		name:    name,
		sets:    sto.sets,
		setMask: uint64(nsets - 1),
		policy:  policy,
		store:   sto,
	}
}

// Release returns the TLB's arrays and views to the pool. The owner
// calls it once it has read everything it needs from the TLB; the TLB
// must not be used afterwards, and panics if it is rather than reading
// another TLB's state.
func (t *TLB) Release() {
	if t.store == nil {
		return
	}
	stores.Put(len(t.store.entries), t.store)
	t.store, t.sets = nil, nil
}

// Name returns the TLB's name.
func (t *TLB) Name() string { return t.name }

// setFor returns the set index for a VPN.
func (t *TLB) setFor(vpn uint64) int { return int(vpn & t.setMask) }

// lookupSize probes one page size and returns the set index and the
// matching way, or -1.
func (t *TLB) lookupSize(vaddr arch.Addr, pageBits uint8, thread uint8) (int, int) {
	vpn := vaddr >> pageBits
	si := t.setFor(vpn)
	set := t.sets[si].Entries
	for w := range set {
		// VPN first: it is the most discriminating field, so the common
		// non-matching way falls out after one compare.
		if set[w].VPN == vpn && set[w].Valid && set[w].PageBits == pageBits && set[w].Thread == thread {
			return si, w
		}
	}
	return si, -1
}

// Lookup searches for the translation of vaddr. On a hit it returns the
// physical page number and the entry's page size, and the policy's
// promotion rule runs.
func (t *TLB) Lookup(vaddr arch.Addr, pc uint64, class arch.Class, thread uint8) (uint64, uint8, bool) {
	for _, pageBits := range [2]uint8{arch.PageBits4K, arch.PageBits2M} {
		si, w := t.lookupSize(vaddr, pageBits, thread)
		if w < 0 {
			continue
		}
		set := &t.sets[si]
		e := &set.Entries[w]
		req := &t.req
		*req = Request{VPN: e.VPN, PC: pc, Class: class, Thread: thread, PageBits: pageBits}
		t.policy.OnHit(si, set, w, req)
		return e.PPN, pageBits, true
	}
	return 0, 0, false
}

// Peek returns the translation without updating replacement state.
func (t *TLB) Peek(vaddr arch.Addr, thread uint8) (ppn uint64, pageBits uint8, class arch.Class, ok bool) {
	for _, bits := range [2]uint8{arch.PageBits4K, arch.PageBits2M} {
		if si, w := t.lookupSize(vaddr, bits, thread); w >= 0 {
			e := &t.sets[si].Entries[w]
			return e.PPN, e.PageBits, e.Class, true
		}
	}
	return 0, 0, 0, false
}

// Insert installs a translation after a fill: victimise per policy,
// write the entry, then apply the policy's insertion rule.
func (t *TLB) Insert(vaddr arch.Addr, ppn uint64, pageBits uint8, class arch.Class, pc uint64, thread uint8) {
	vpn := vaddr >> pageBits
	si := t.setFor(vpn)
	set := &t.sets[si]
	req := &t.req
	*req = Request{VPN: vpn, PC: pc, Class: class, Thread: thread, PageBits: pageBits}
	// Refuse duplicate inserts (a second walk for the same page may have
	// completed first); treat as a touch instead.
	if _, w := t.lookupSize(vaddr, pageBits, thread); w >= 0 {
		t.policy.OnHit(si, set, w, req)
		return
	}
	w := t.policy.Victim(si, set, req)
	if set.Entries[w].Valid {
		t.policy.OnEvict(si, set, w)
	}
	set.Entries[w] = Entry{
		Valid:    true,
		VPN:      vpn,
		PPN:      ppn,
		PageBits: pageBits,
		Class:    class,
		Thread:   thread,
	}
	t.policy.OnFill(si, set, w, req)
}

// Occupancy returns how many valid entries hold each class (test/debug aid).
func (t *TLB) Occupancy() (instr, data int) {
	for _, e := range t.store.entries {
		if !e.Valid {
			continue
		}
		if e.Class == arch.InstrClass {
			instr++
		} else {
			data++
		}
	}
	return
}
