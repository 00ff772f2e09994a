package replacement

import "encoding/binary"

// The recency-stack kernel of every cache and TLB policy. A stack holds
// one set's positions, one byte per way: way w sits at stack[w] (0 =
// MRU), and a valid stack is a permutation of 0..ways-1. MoveToStackPos
// updates eight ways per 64-bit word: SIMD within a register. Every
// position is below 128 (config.MaxCacheWays caps cache and TLB
// associativity there), which leaves each byte's top bit free to act as
// a lane-local comparison flag, so no carry ever crosses from one way's
// byte into the next.
const (
	laneOnes = 0x0101010101010101 // 1 in every byte
	laneTops = 0x8080808080808080 // the top bit of every byte
)

// InitStack resets a stack to the identity permutation: way w at
// position w.
func InitStack(stack []uint8) {
	for w := range stack {
		stack[w] = uint8(w)
	}
}

// StackPosOf returns the way currently at stack position pos, or -1.
func StackPosOf(stack []uint8, pos int) int {
	for w, p := range stack {
		if int(p) == pos {
			return w
		}
	}
	return -1
}

// CheckStackInvariant reports whether the positions form a permutation
// of 0..ways-1. The cache and TLB auditors' stack-permutation rules and
// the policy tests call it. The seen positions fit one fixed bitmask (a
// position is a byte), so an audit pass allocates nothing.
func CheckStackInvariant(stack []uint8) bool {
	var seen [4]uint64
	for _, p := range stack {
		bit := uint64(1) << (p & 63)
		if int(p) >= len(stack) || seen[p>>6]&bit != 0 {
			return false
		}
		seen[p>>6] |= bit
	}
	return true
}

// MoveToStackPos repositions way to stack position pos, shifting the
// intervening ways by one; the permutation invariant is preserved. A
// promotion (pos below the way's current position old, nearer MRU)
// pushes every way at a position in [pos, old) one step toward LRU; a
// demotion (pos > old) pulls every way in (old, pos] one step toward MRU.
func MoveToStackPos(stack []uint8, way, pos int) {
	old := int(stack[way])
	switch {
	case pos < old:
		shiftStack(stack, pos, old, true)
	case pos > old:
		shiftStack(stack, old+1, pos+1, false)
	default:
		return
	}
	stack[way] = uint8(pos)
}

// shiftStack adds one to (down) or subtracts one from (!down) every
// position p with lo <= p < hi, where 0 <= lo < hi <= 128. Sets
// narrower than a word take the byte loop. A set whose ways are not a
// multiple of eight (the 12-way L1D and STLB) ends on its last eight
// bytes, with the flags of the bytes the previous word already moved
// cleared.
func shiftStack(stack []uint8, lo, hi int, down bool) {
	n := len(stack)
	if n < 8 {
		for i, p := range stack {
			if int(p) >= lo && int(p) < hi {
				if down {
					stack[i]++
				} else {
					stack[i]--
				}
			}
		}
		return
	}
	geLo := laneOnes * uint64(128-lo)
	geHi := laneOnes * uint64(128-hi)
	i := 0
	for ; i+8 <= n; i += 8 {
		shiftWord(stack[i:i+8], geLo, geHi, laneTops, down)
	}
	if i < n {
		shiftWord(stack[n-8:], geLo, geHi, laneTops<<(8*uint(i+8-n)), down)
	}
}

// shiftWord moves the positions of one eight-byte word whose top bit is
// in flags. For a word x, x + laneOnes*(128-lo) sets a byte's top bit
// exactly when that byte is >= lo: each byte is below 128 and the
// addend at most 128, so no byte overflows into its neighbour. Clearing
// the bytes that are also >= hi and shifting the surviving top bits down
// leaves 1 in each byte to move. Adding that mask cannot carry (a moved
// byte stays below hi <= 128), and subtracting it cannot borrow (a
// demotion's lo is old+1 >= 1).
func shiftWord(w []uint8, geLo, geHi, flags uint64, down bool) {
	x := binary.LittleEndian.Uint64(w)
	d := (((x + geLo) &^ (x + geHi)) & flags) >> 7
	if down {
		x += d
	} else {
		x -= d
	}
	binary.LittleEndian.PutUint64(w, x)
}
