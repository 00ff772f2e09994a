package replacement

// history is the fixed storage of a sampler: the time and PC signature
// of each tracked block's previous sampled access, in slots indexed by
// block number through chained hash buckets. Mockingjay's sampler and
// each of Hawkeye's OPTgen sets keep one. Its arrays are sized when it
// is made, so no operation on it allocates.
type history struct {
	slots []histEntry
	// heads holds, per bucket, slot+1 of the bucket chain's first
	// entry; 0 is an empty bucket.
	heads []uint16
	shift uint8
}

// histEntry is one slot of a history. next links the slots of one
// bucket: slot+1 of the chain's next entry, 0 at its end.
type histEntry struct {
	time  uint64
	block uint32
	sig   uint16
	next  uint16
}

// newHistory returns a history of n slots over 1<<bits buckets. n must
// be below 1<<16, so a slot+1 link fits in 16 bits.
func newHistory(n int, bits uint8) history {
	return history{
		slots: make([]histEntry, n),
		heads: make([]uint16, 1<<bits),
		shift: 32 - bits,
	}
}

func (h *history) bucket(block uint32) int {
	return int((block * 0x9e3779b1) >> h.shift)
}

// find returns the slot holding block, or -1.
func (h *history) find(block uint32) int {
	for i := h.heads[h.bucket(block)]; i != 0; i = h.slots[i-1].next {
		if h.slots[i-1].block == block {
			return int(i) - 1
		}
	}
	return -1
}

// link enters slot i, whose block is written, at the head of its
// bucket's chain.
func (h *history) link(i int) {
	b := h.bucket(h.slots[i].block)
	h.slots[i].next = h.heads[b]
	h.heads[b] = uint16(i + 1)
}

// unlink removes slot i from its bucket's chain.
func (h *history) unlink(i int) {
	p := &h.heads[h.bucket(h.slots[i].block)]
	for int(*p) != i+1 {
		p = &h.slots[*p-1].next
	}
	*p = h.slots[i].next
}
