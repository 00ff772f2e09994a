// Package vm implements the virtual-memory substrate: a simulated
// physical-page allocator and a 5-level radix-tree page table per address
// space. Page-table nodes are themselves allocated physical pages, so
// every walk step has a real physical PTE address — eight 8-byte PTEs
// share one 64-byte cache block, and page-walk references genuinely
// contend with demand traffic in the cache hierarchy (the property xPTP,
// PTP and T-DRRIP act on).
//
// Section 6.5's multi-page-size scenario is supported by deterministically
// mapping a configurable fraction of 2MB-aligned virtual regions onto 2MB
// pages; translations for those regions terminate at the level-2 leaf.
package vm

import (
	"fmt"

	"itpsim/internal/arch"
	"itpsim/internal/pool"
)

// Levels of the radix tree, leaf-most last. Level numbering follows x86:
// 5 (PML5) down to 1 (PT).
const (
	NumLevels   = 5
	ptesPerNode = 512
	pteSize     = 8
)

// LevelShift returns the VA bit position indexing level l (5..1):
// L1 indexes bits [20:12], L2 [29:21], ..., L5 [56:48].
//
//itp:hotpath
func LevelShift(level int) uint {
	return uint(arch.PageBits4K + 9*(level-1))
}

// levelIndex extracts the 9-bit radix index of va at level l.
//
//itp:hotpath
func levelIndex(va arch.Addr, level int) int {
	return int((va >> LevelShift(level)) & (ptesPerNode - 1))
}

// PhysAlloc hands out physical pages from a simulated DRAM. It is a bump
// allocator; sequential allocation mirrors a freshly booted machine and
// keeps runs deterministic.
type PhysAlloc struct {
	next arch.Addr
	size arch.Addr
}

// NewPhysAlloc creates an allocator over size bytes of physical memory,
// starting above a small reserved region.
func NewPhysAlloc(size uint64) *PhysAlloc {
	return &PhysAlloc{next: 1 << 20, size: arch.Addr(size)}
}

// Alloc returns the base physical address of a fresh page of 2^bits bytes.
// It panics if simulated DRAM is exhausted — a configuration error, since
// workloads declare their footprints up front.
func (a *PhysAlloc) Alloc(bits uint8) arch.Addr {
	sz := arch.Addr(1) << bits
	// Align.
	base := (a.next + sz - 1) &^ (sz - 1)
	if base+sz > a.size {
		panic(fmt.Sprintf("vm: out of simulated physical memory (%d bytes)", a.size))
	}
	a.next = base + sz
	return base
}

// WalkStep is one memory reference of a page walk: the physical address
// of the PTE consulted at the given level.
type WalkStep struct {
	Level   int // 5..1 (or 2 for a 2MB leaf)
	PTEAddr arch.Addr
}

// Translation is the result of resolving a virtual address.
type Translation struct {
	PPN      uint64 // physical page number in units of the page size
	PageBits uint8  // arch.PageBits4K or arch.PageBits2M
	// Steps are the PTE references of a full (uncached) walk, root
	// first. A walker with PSCs will skip a prefix of these.
	Steps    [NumLevels]WalkStep
	NumSteps int
}

// PhysAddr reconstructs the full physical address for va.
//
//itp:hotpath
func (t Translation) PhysAddr(va arch.Addr) arch.Addr {
	mask := (arch.Addr(1) << t.PageBits) - 1
	return t.PPN<<t.PageBits | (va & mask)
}

// node is one radix-tree node (a 4KB physical page of 512 PTEs). Its
// maps stay compact for the sparse upper levels, and each is made on its
// first insert: a level-1 node never has children, and an interior node
// has leaf entries only at level 2, for 2MB pages.
type node struct {
	phys     arch.Addr
	children map[int]*node
	// leafPPN holds translations at leaf level (level 1 for 4KB pages,
	// level 2 for 2MB pages).
	leafPPN map[int]uint64
}

// nodes recycles the nodes of released tables, one pool per level. A
// node goes back with its maps emptied, so it differs from a new node
// only in the map capacity it keeps.
var nodes pool.Keyed[*node]

// newNode returns an empty level node backed by a newly allocated frame.
func (pt *PageTable) newNode(level int) *node {
	n, ok := nodes.Get(level)
	if !ok {
		n = new(node)
	}
	n.phys = pt.alloc.Alloc(arch.PageBits4K)
	return n
}

// PageTable is one address space's 5-level radix page table. Pages are
// allocated lazily on first touch.
type PageTable struct {
	alloc *PhysAlloc
	root  *node
	// hugeFraction is the probability that a 2MB-aligned virtual region
	// is backed by a 2MB page.
	hugeFraction float64
	seed         uint64
}

// NewPageTable creates an address space over the shared allocator.
// hugeFraction ∈ [0,1] selects Section 6.5's scenario; seed makes the
// huge-page layout deterministic per address space.
func NewPageTable(alloc *PhysAlloc, hugeFraction float64, seed uint64) *PageTable {
	pt := &PageTable{alloc: alloc, hugeFraction: hugeFraction, seed: seed}
	pt.root = pt.newNode(NumLevels)
	return pt
}

// Release returns every node of the table to the pools. The owner calls
// it once it is done translating; the table must not be used afterwards,
// and panics if it is. Release is idempotent.
func (pt *PageTable) Release() {
	if pt.root != nil {
		releaseNode(pt.root, NumLevels)
		pt.root = nil
	}
}

// releaseNode empties n and its subtree and puts each node back under its
// level.
func releaseNode(n *node, level int) {
	//itp:deterministic — the order only decides which emptied node a later Get returns
	for _, c := range n.children {
		releaseNode(c, level-1)
	}
	clear(n.children)
	clear(n.leafPPN)
	nodes.Put(level, n)
}

// isHuge decides deterministically whether va's 2MB region uses a 2MB page.
//
//itp:hotpath
func (pt *PageTable) isHuge(va arch.Addr) bool {
	if pt.hugeFraction <= 0 {
		return false
	}
	if pt.hugeFraction >= 1 {
		return true
	}
	h := arch.PageNumber2M(va) * 0x9e3779b97f4a7c15
	h ^= pt.seed
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return float64(h>>11)/float64(1<<53) < pt.hugeFraction
}

// Translate resolves va, building page-table nodes and allocating the
// backing physical page on first touch. The returned Steps list the PTE
// references of a full walk.
//
//itp:hotpath
func (pt *PageTable) Translate(va arch.Addr) Translation {
	huge := pt.isHuge(va)
	leafLevel := 1
	pageBits := uint8(arch.PageBits4K)
	if huge {
		leafLevel = 2
		pageBits = arch.PageBits2M
	}

	var tr Translation
	tr.PageBits = pageBits
	n := pt.root
	for level := NumLevels; level >= leafLevel; level-- {
		idx := levelIndex(va, level)
		tr.Steps[tr.NumSteps] = WalkStep{Level: level, PTEAddr: n.phys + arch.Addr(idx*pteSize)}
		tr.NumSteps++
		if level == leafLevel {
			ppn, ok := n.leafPPN[idx]
			if !ok {
				//itp:cold — first touch of a page; allocation is off the steady-state path
				ppn = pt.mapPage(n, idx, pageBits)
			}
			tr.PPN = ppn
			return tr
		}
		child, ok := n.children[idx]
		if !ok {
			//itp:cold — first touch of a table node; allocation is off the steady-state path
			child = pt.addChild(n, idx, level-1)
		}
		n = child
	}
	panic("vm: unreachable walk termination")
}

// mapPage backs leaf slot idx of n with a page of 2^bits bytes, whose
// frame is allocated here, on first touch.
func (pt *PageTable) mapPage(n *node, idx int, bits uint8) uint64 {
	if n.leafPPN == nil {
		n.leafPPN = make(map[int]uint64)
	}
	ppn := uint64(pt.alloc.Alloc(bits) >> bits)
	n.leafPPN[idx] = ppn
	return ppn
}

// addChild links a new level node under slot idx of n.
func (pt *PageTable) addChild(n *node, idx, level int) *node {
	if n.children == nil {
		n.children = make(map[int]*node)
	}
	child := pt.newNode(level)
	n.children[idx] = child
	return child
}
