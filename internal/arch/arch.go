// Package arch defines the shared architectural vocabulary of the
// simulator: addresses, access kinds, translation classes, and the
// block/page geometry constants every other package agrees on.
package arch

import "fmt"

// Addr is a virtual or physical byte address.
type Addr = uint64

// Geometry constants for the simulated machine. Cache blocks are 64 bytes
// (ChampSim's fixed block size); pages are 4KB base with optional 2MB huge
// pages, matching the paper's two evaluation scenarios.
const (
	BlockBits = 6
	BlockSize = 1 << BlockBits

	PageBits4K = 12
	PageSize4K = 1 << PageBits4K

	PageBits2M = 21
	PageSize2M = 1 << PageBits2M

	// PhysMemBytes is the simulated machine's physical memory, 64 GB.
	// Its 4KB frame numbers fit 24 bits and its block numbers 30, so
	// page tables hold frame numbers and cache tag arrays hold block
	// numbers in 32 bits; vm.NewPhysAlloc rejects a size whose numbers
	// would not fit.
	PhysMemBytes = 64 << 30

	// PCLimit bounds instruction addresses: every PC lies below 4 GB,
	// so a cache line holds its filling PC in 32 bits. The generators
	// place code at 4 MB and keep it within tens of MB; trace.Reader
	// rejects a PC at or above the bound as corrupt, and trace.Writer
	// refuses to write one.
	PCLimit = 1 << 32
)

// Kind classifies a memory-hierarchy access by what issued it.
type Kind uint8

const (
	// IFetch is an instruction-cache demand fetch.
	IFetch Kind = iota
	// Load is a demand data read.
	Load
	// Store is a demand data write.
	Store
	// PTW is a page-table-walk reference looking for a PTE.
	PTW
	// Prefetch is a hardware-prefetcher fill request.
	Prefetch
	// Writeback is a dirty-block eviction travelling down the hierarchy.
	Writeback
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case IFetch:
		return "ifetch"
	case Load:
		return "load"
	case Store:
		return "store"
	case PTW:
		return "ptw"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// IsDemand reports whether the access is on the demand path (counts toward
// demand MPKI, as opposed to prefetch or writeback traffic).
func (k Kind) IsDemand() bool {
	return k == IFetch || k == Load || k == Store || k == PTW
}

// Class says whether an address translation (or a PTE block produced by a
// walk) serves the instruction stream or the data stream. This is the
// paper's Type bit: Type=0 means instruction, Type=1 means data.
type Class uint8

const (
	// InstrClass marks instruction translations (Type=0 in the paper).
	InstrClass Class = iota
	// DataClass marks data translations (Type=1 in the paper).
	DataClass
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == InstrClass {
		return "instr"
	}
	return "data"
}

// Access describes one reference travelling through the memory system. It
// carries the metadata replacement policies need: the issuing kind, the
// translation class for PTW references and TLB fills, whether the block
// being filled holds PTE payload, and — for T-DRRIP — whether the demand
// access's own translation missed the STLB.
type Access struct {
	Addr Addr // block- or page-aligned address being referenced
	PC   Addr // program counter of the causing instruction
	Kind Kind
	// Class is meaningful for Kind==PTW (which stream the walk serves)
	// and for TLB requests.
	Class Class
	// IsPTE marks an access that reads/fills a block containing page
	// table entries. IsPTE && Class==DataClass identifies the blocks
	// xPTP protects.
	IsPTE bool
	// STLBMiss marks a demand access whose translation missed the STLB
	// (used by T-DRRIP's eviction bias).
	STLBMiss bool
	// Thread is the hardware-thread id (0 in single-thread runs).
	Thread uint8
}

// BlockAddr returns the 64B-block-aligned address of a.
func BlockAddr(a Addr) Addr { return a &^ (BlockSize - 1) }

// BlockNumber returns the block number (address >> BlockBits).
func BlockNumber(a Addr) Addr { return a >> BlockBits }

// PageNumber4K returns the 4KB virtual/physical page number of a.
func PageNumber4K(a Addr) Addr { return a >> PageBits4K }

// PageNumber2M returns the 2MB page number of a.
func PageNumber2M(a Addr) Addr { return a >> PageBits2M }
