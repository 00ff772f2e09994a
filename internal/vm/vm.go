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
	"math"
	"math/bits"

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
func LevelShift(level int) uint {
	return uint(arch.PageBits4K + 9*(level-1))
}

// levelIndex extracts the 9-bit radix index of va at level l.
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
// starting above a small reserved region. Caches hold block numbers and
// page tables 4KB frame numbers in 32 bits, the all-ones block number
// marking an empty way, so NewPhysAlloc panics on a size whose last
// block number would be all ones; the frame numbers of a size it accepts
// fit 26 bits. It accepts arch.PhysMemBytes.
func NewPhysAlloc(size uint64) *PhysAlloc {
	if (size-1)>>arch.BlockBits >= math.MaxUint32 {
		panic(fmt.Sprintf("vm: %d bytes of physical memory do not fit 32-bit block numbers", size))
	}
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
func (t Translation) PhysAddr(va arch.Addr) arch.Addr {
	mask := (arch.Addr(1) << t.PageBits) - 1
	return t.PPN<<t.PageBits | (va & mask)
}

// PageTable is one address space's 5-level radix page table. Its nodes
// and pages are physical frames taken from the shared allocator on first
// touch; classes map each frame's key to its 4KB frame number. The root
// is a field, taken when the table is built.
type PageTable struct {
	alloc   *PhysAlloc
	root    arch.Addr
	classes []*frameClass
	// hugeFraction is the probability that a 2MB-aligned virtual region
	// is backed by a 2MB page.
	hugeFraction float64
	seed         uint64
}

// frameClass holds a table's frames whose keys share their top 32 bits,
// hi: the level and the VA bits above bit 44 (level 0) or 53 (level 1).
// A key's low 32 bits, lo, name an entry of a radix node one level up:
// lo>>9 the node, lo&511 the entry. dir maps a node to its index in
// nodes, and a node keeps the 4KB frame numbers of its present entries
// in entry order, sixteen to a chunk of chunks; a frame number fits 32
// bits because physical memory is arch.PhysMemBytes. A generator's
// address space has eight classes, one per level above 0 and one per
// region its pages lie in, so Translate finds a class by a linear scan
// and a table makes room for eight up front.
type frameClass struct {
	hi     uint32
	dir    map[uint32]uint32
	nodes  []node
	chunks [][chunkFrames]uint32
}

// chunkFrames is how many frames a chunk holds.
const chunkFrames = 16

// node is one radix node's present entries: present marks them, and
// chunks[k] indexes the class chunk holding the frames of the node's
// present entries 16k to 16k+15.
type node struct {
	present [ptesPerNode / 64]uint64
	chunks  [ptesPerNode / chunkFrames]uint32
}

// rank returns how many present entries of n precede entry e, and
// whether e is present.
func (n *node) rank(e uint32) (int, bool) {
	w, bit := e/64, uint64(1)<<(e%64)
	r := bits.OnesCount64(n.present[w] & (bit - 1))
	for _, x := range n.present[:w] {
		r += bits.OnesCount64(x)
	}
	return r, n.present[w]&bit != 0
}

// frame returns the frame number of key lo, and false when the class
// (which may be nil) has none.
func (c *frameClass) frame(lo uint32) (uint32, bool) {
	if c == nil {
		return 0, false
	}
	i, ok := c.dir[lo/ptesPerNode]
	if !ok {
		return 0, false
	}
	n := &c.nodes[i]
	r, ok := n.rank(lo % ptesPerNode)
	if !ok {
		return 0, false
	}
	return c.chunks[n.chunks[r/chunkFrames]][r%chunkFrames], true
}

// insert records frame as the frame of key lo, which has none. The
// frames of the node's later entries move up one slot, and the node
// takes a new chunk when its chunks are full.
func (c *frameClass) insert(lo, frame uint32) {
	i, ok := c.dir[lo/ptesPerNode]
	if !ok {
		i = uint32(len(c.nodes))
		c.dir[lo/ptesPerNode] = i
		c.nodes = append(c.nodes, node{})
	}
	n := &c.nodes[i]
	e := lo % ptesPerNode
	r, _ := n.rank(e)
	count := 0
	for _, x := range n.present {
		count += bits.OnesCount64(x)
	}
	n.present[e/64] |= 1 << (e % 64)
	if count%chunkFrames == 0 {
		n.chunks[count/chunkFrames] = uint32(len(c.chunks))
		c.chunks = append(c.chunks, [chunkFrames]uint32{})
	}
	// Each chunk from rank r's to the last shifts its frames from r on
	// up one slot and passes its last frame on to the next.
	for k := r / chunkFrames; k <= count/chunkFrames; k++ {
		ch := &c.chunks[n.chunks[k]]
		from := 0
		if k == r/chunkFrames {
			from = r % chunkFrames
		}
		last := ch[chunkFrames-1]
		copy(ch[from+1:], ch[from:chunkFrames-1])
		ch[from], frame = frame, last
	}
}

// frameMaps recycles the classes of released tables, keyed by class. A
// class goes back with its directory cleared and its nodes and chunks
// truncated, keeping their capacity, so a table that maps no more nodes
// and chunks per class than a released one did inserts without
// allocating.
var frameMaps pool.Keyed[*frameClass]

// vaBits is the VA width the five levels index. Translate ignores the
// bits above it, so an address and its low vaBits bits alias.
const vaBits = arch.PageBits4K + 9*NumLevels

// frameKey names the frame of the given level that a walk of va reaches:
// the level-4..1 node covering va, or at level 0 its 4KB page. A 2MB page
// takes its region's level-1 key, which isHuge leaves free. The level
// sits above the VA bits that select the frame, so frames of different
// levels never share a key.
func frameKey(va arch.Addr, level int) uint64 {
	return uint64(level)<<60 | uint64(va>>LevelShift(level+1))
}

// NewPageTable creates an address space over the shared allocator and
// takes its root frame. hugeFraction ∈ [0,1] selects Section 6.5's
// scenario; seed makes the huge-page layout deterministic per address
// space.
func NewPageTable(alloc *PhysAlloc, hugeFraction float64, seed uint64) *PageTable {
	return &PageTable{
		alloc:        alloc,
		root:         alloc.Alloc(arch.PageBits4K),
		classes:      make([]*frameClass, 0, 8),
		hugeFraction: hugeFraction,
		seed:         seed,
	}
}

// Release returns the table's classes to the pool. The owner calls it
// once it is done translating; the table must not be used afterwards,
// and panics if it is. Release is idempotent.
func (pt *PageTable) Release() {
	for _, c := range pt.classes {
		clear(c.dir)
		c.nodes, c.chunks = c.nodes[:0], c.chunks[:0]
		frameMaps.Put(int(c.hi), c)
	}
	pt.classes, pt.alloc = nil, nil
}

// isHuge decides deterministically whether va's 2MB region uses a 2MB page.
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

// Translate resolves va, taking the frames of missing nodes top-down and
// then the page's frame on first touch. The returned Steps list the PTE
// references of a full walk.
func (pt *PageTable) Translate(va arch.Addr) Translation {
	va &= 1<<vaBits - 1
	leafLevel := 1
	var tr Translation
	tr.PageBits = arch.PageBits4K
	if pt.isHuge(va) {
		leafLevel = 2
		tr.PageBits = arch.PageBits2M
	}
	frame := pt.root
	for level := NumLevels; level >= leafLevel; level-- {
		tr.Steps[tr.NumSteps] = WalkStep{Level: level, PTEAddr: frame + arch.Addr(levelIndex(va, level)*pteSize)}
		tr.NumSteps++
		key := frameKey(va, level-1)
		hi, lo := uint32(key>>32), uint32(key)
		c := pt.class(hi)
		next, ok := c.frame(lo)
		if !ok {
			// First touch of a node, page or class.
			next = pt.mapFrame(c, hi, lo, level == leafLevel, tr.PageBits)
		}
		frame = arch.Addr(next) << arch.PageBits4K
	}
	tr.PPN = uint64(frame >> tr.PageBits)
	return tr
}

// class returns class hi, nil while the table has none.
func (pt *PageTable) class(hi uint32) *frameClass {
	for _, c := range pt.classes {
		if c.hi == hi {
			return c
		}
	}
	return nil
}

// mapFrame takes the frame for the key hi<<32|lo, returning its 4KB frame
// number: the page of 2^pageBits bytes at the leaf, a 4KB node above it.
// c is the key's class; when it is nil the class is new, and comes from
// the pool.
func (pt *PageTable) mapFrame(c *frameClass, hi, lo uint32, leaf bool, pageBits uint8) uint32 {
	if !leaf {
		pageBits = arch.PageBits4K
	}
	frame := uint32(pt.alloc.Alloc(pageBits) >> arch.PageBits4K)
	if c == nil {
		var ok bool
		if c, ok = frameMaps.Get(int(hi)); !ok {
			c = &frameClass{hi: hi, dir: map[uint32]uint32{}}
		}
		pt.classes = append(pt.classes, c)
	}
	c.insert(lo, frame)
	return frame
}
