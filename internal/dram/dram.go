// Package dram models main memory with the Table 1 parameters: a fixed
// access latency derived from tRP/tRCD/tCAS, a per-transfer channel
// occupancy derived from the 12.8 GB/s bandwidth, and a small open-row
// tracker that discounts row-buffer hits.
package dram

import (
	"itpsim/internal/arch"
	"itpsim/internal/config"
)

// rowBits: DRAM rows are 8KB in this model.
const rowBits = 13

// DRAM is the terminal level of the memory hierarchy.
type DRAM struct {
	cfg         config.DRAMConfig
	channelFree uint64
	openRows    []uint64
	nextRowSlot int
	// Accesses counts all transfers (reads and writebacks).
	Accesses uint64
	// RowHits counts accesses that hit an open row.
	RowHits uint64
}

// New builds the DRAM model.
func New(cfg config.DRAMConfig) *DRAM {
	n := cfg.RowBufferPages
	if n <= 0 {
		n = 1
	}
	rows := make([]uint64, n)
	for i := range rows {
		rows[i] = ^uint64(0)
	}
	return &DRAM{cfg: cfg, openRows: rows}
}

func (d *DRAM) rowHit(row uint64) bool {
	for _, r := range d.openRows {
		if r == row {
			return true
		}
	}
	return false
}

func (d *DRAM) openRow(row uint64) {
	if d.rowHit(row) {
		return
	}
	d.openRows[d.nextRowSlot] = row
	d.nextRowSlot = (d.nextRowSlot + 1) % len(d.openRows)
}

// Access implements the memory-level interface used by the cache
// hierarchy: it returns the cycle at which the requested block is
// available. The access occupies the channel for TransferCycles.
func (d *DRAM) Access(now uint64, acc *arch.Access) uint64 {
	d.Accesses++
	start := now
	if d.channelFree > start {
		start = d.channelFree
	}
	lat := d.cfg.LatencyCycles
	row := acc.Addr >> rowBits
	if d.rowHit(row) {
		d.RowHits++
		if lat > d.cfg.RowBufferBonus {
			lat -= d.cfg.RowBufferBonus
		}
	}
	d.openRow(row)
	d.channelFree = start + d.cfg.TransferCycles
	return start + lat
}

// Writeback models a dirty eviction draining to memory: it consumes
// channel bandwidth but nothing waits for it.
func (d *DRAM) Writeback(now uint64, addr arch.Addr) {
	d.Accesses++
	start := now
	if d.channelFree > start {
		start = d.channelFree
	}
	d.openRow(addr >> rowBits)
	d.channelFree = start + d.cfg.TransferCycles
}
