package vm

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"itpsim/internal/arch"
)

// refNode is one node of the reference page table: a radix tree of 4KB
// nodes of 512 PTEs each, the layout a PageTable's frames stand for.
type refNode struct {
	phys     arch.Addr
	children map[int]*refNode
	pages    map[int]arch.Addr // leaf slot → page frame
}

// refTable is the reference PageTable. It takes frames from its own
// allocator in walk order — each missing node top-down, then the page —
// and the huge-page decision from a PageTable of the same fraction and
// seed.
type refTable struct {
	alloc *PhysAlloc
	root  *refNode
	huge  *PageTable
}

func newRefTable(alloc *PhysAlloc, hugeFraction float64, seed uint64) *refTable {
	r := &refTable{alloc: alloc, huge: &PageTable{hugeFraction: hugeFraction, seed: seed}}
	r.root = r.node()
	return r
}

func (r *refTable) node() *refNode {
	return &refNode{
		phys:     r.alloc.Alloc(arch.PageBits4K),
		children: map[int]*refNode{},
		pages:    map[int]arch.Addr{},
	}
}

func (r *refTable) translate(va arch.Addr) Translation {
	leaf, bits := 1, uint8(arch.PageBits4K)
	if r.huge.isHuge(va) {
		leaf, bits = 2, arch.PageBits2M
	}
	tr := Translation{PageBits: bits}
	n := r.root
	for level := NumLevels; ; level-- {
		idx := int(va>>LevelShift(level)) & (ptesPerNode - 1)
		tr.Steps[tr.NumSteps] = WalkStep{Level: level, PTEAddr: n.phys + arch.Addr(idx*pteSize)}
		tr.NumSteps++
		if level == leaf {
			page, ok := n.pages[idx]
			if !ok {
				page = r.alloc.Alloc(bits)
				n.pages[idx] = page
			}
			tr.PPN = uint64(page >> bits)
			return tr
		}
		c, ok := n.children[idx]
		if !ok {
			c = r.node()
			n.children[idx] = c
		}
		n = c
	}
}

// matchRef translates vas in order through pt and ref, each on its own
// allocator, and fails at the first translation that differs in its PPN,
// page size, step count, or any step's level or PTE address. A PageTable
// reads the low vaBits bits of an address, so the reference gets those.
func matchRef(t *testing.T, pt *PageTable, ref *refTable, vas []arch.Addr) {
	t.Helper()
	for i, va := range vas {
		if got, want := pt.Translate(va), ref.translate(va&(1<<vaBits-1)); got != want {
			t.Fatalf("va %d (%#x): %+v, reference %+v", i, va, got, want)
		}
	}
}

// levelVAs returns n groups of addresses, each one value x of 1–36 bits
// placed at every level's position: x<<12 is page x, x<<21 reaches the
// level-1 node x, x<<30 the level-2 node x, and so on. The VA bits above
// a frame are then equal across levels, so a frame key that loses its
// level merges frames of different levels.
func levelVAs(seed uint64, n int) []arch.Addr {
	var vas []arch.Addr
	for i := 0; i < n; i++ {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		x := arch.Addr(seed >> (28 + seed%36))
		for level := 1; level <= NumLevels; level++ {
			vas = append(vas, x<<LevelShift(level)|arch.Addr(seed&0xff8))
		}
	}
	return vas
}

// TestTranslateMatchesReference: at huge-page fractions 0, 0.5 and 1, a
// table resolves addresses at every level's position, clustered runs of
// pages, every page of three 2MB regions and every 2MB region of one 1GB
// region in shuffled order, and revisits of all of them, exactly like
// the reference tree. Below fraction 1 the addresses at every level's position put the
// table's pages in hundreds of key classes, far past the eight a
// generator's address space has; at fraction 1 there are no 4KB pages,
// and the level-1 and upper classes alone number 19. The clustered runs
// put at most 16 frames in a node, one chunk's worth; the whole regions
// fill nodes across all 32 chunks.
func TestTranslateMatchesReference(t *testing.T) {
	dense := append(denseVAs(3, 3, arch.PageBits4K), denseVAs(4, 1, arch.PageBits2M)...)
	vas := append(levelVAs(0x9e3779b97f4a7c15, 1000), clusteredVAs(0xdeadbeefcafe, 2048)...)
	vas = append(vas, dense...)
	vas = append(vas, vas[:3000]...)
	vas = append(vas, dense...)
	for _, huge := range []float64{0, 0.5, 1} {
		pt := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), huge, 5)
		matchRef(t, pt, newRefTable(NewPhysAlloc(arch.PhysMemBytes), huge, 5), vas)
		if n := len(pt.classes); huge < 1 && n < 32 {
			t.Fatalf("huge-page fraction %v: the table spans %d key classes, want at least 32", huge, n)
		}
		pt.Release()
	}
}

// FuzzTranslate requires a table to translate each address of its
// input exactly like the reference tree, at huge-page fraction 0, 0.5 or
// 1 and any huge-page seed. The input is raw addresses, eight bytes
// each, or in dense mode page indices, two bytes each, into the one 2MB
// region the seed picks, so a leaf node fills in the order the bytes
// say; raw addresses rarely meet in one node. The dense seeds touch the
// region's pages in one shuffled order and revisit them in another.
func FuzzTranslate(f *testing.F) {
	seedVAs := func(vas ...arch.Addr) []byte {
		var b []byte
		for _, va := range vas {
			b = binary.LittleEndian.AppendUint64(b, uint64(va))
		}
		return b
	}
	for frac := uint8(0); frac < 3; frac++ {
		f.Add(frac, uint64(1), false, seedVAs(5<<12, 5<<21, 5<<30, 5<<39, 5<<48, 5<<12|0x10))
		f.Add(frac, uint64(7), false, seedVAs(levelVAs(uint64(frac)+1, 8)...))
	}
	f.Add(uint8(0), uint64(3), false, seedVAs(1<<57|0x1000, 0x1000, 1<<63|0x1000))
	var region []byte
	rng := rand.New(rand.NewSource(1))
	for _, p := range append(rng.Perm(ptesPerNode), rng.Perm(ptesPerNode)...) {
		region = binary.LittleEndian.AppendUint16(region, uint16(p))
	}
	f.Add(uint8(0), uint64(0x5eed), true, region)
	f.Add(uint8(1), uint64(0x5eed), true, region)
	f.Fuzz(func(t *testing.T, frac uint8, seed uint64, dense bool, raw []byte) {
		const maxVAs = 1024 // 2MB pages for all of them fit the allocator
		width := 8
		if dense {
			width = 2
		}
		vas := make([]arch.Addr, 0, min(len(raw)/width, maxVAs))
		for ; len(raw) >= width && len(vas) < maxVAs; raw = raw[width:] {
			if dense {
				page := arch.Addr(binary.LittleEndian.Uint16(raw) % ptesPerNode)
				vas = append(vas, arch.Addr(seed)<<arch.PageBits2M|page<<arch.PageBits4K)
			} else {
				vas = append(vas, arch.Addr(binary.LittleEndian.Uint64(raw)))
			}
		}
		huge := [3]float64{0, 0.5, 1}[frac%3]
		pt := NewPageTable(NewPhysAlloc(arch.PhysMemBytes), huge, seed)
		matchRef(t, pt, newRefTable(NewPhysAlloc(arch.PhysMemBytes), huge, seed), vas)
		pt.Release()
	})
}
