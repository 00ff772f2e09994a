package replacement

import (
	"bytes"
	"math/rand"
	"testing"
)

// moveRef is MoveToStackPos as one byte per way: the scalar loop the
// word-at-a-time kernel must reproduce exactly.
func moveRef(stack []uint8, way, pos int) {
	old := int(stack[way])
	switch {
	case pos < old:
		for i := range stack {
			if p := int(stack[i]); p >= pos && p < old {
				stack[i]++
			}
		}
	case pos > old:
		for i := range stack {
			if p := int(stack[i]); p > old && p <= pos {
				stack[i]--
			}
		}
	default:
		return
	}
	stack[way] = uint8(pos)
}

// FuzzMoveToStackPos drives MoveToStackPos and the byte loop through the
// same (way, pos) moves from a random permutation of 1–32 ways. After
// every move the two must agree, the positions must still be a
// permutation, and the bytes just past the set must be untouched: in a
// cache they are the next set's positions.
func FuzzMoveToStackPos(f *testing.F) {
	for _, ways := range []uint8{4, 8, 12, 16} {
		last := ways - 1
		f.Add(ways, uint64(ways), []byte{0, last, last, 0, 1, last / 2, last / 2, 1, 2, 0})
	}
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, ops []byte) {
		ways := int(n) % 32
		if ways == 0 {
			ways = 32
		}
		const guard = 8
		buf := make([]uint8, ways+guard)
		for i, p := range rand.New(rand.NewSource(int64(seed))).Perm(ways) {
			buf[i] = uint8(p)
		}
		for i := ways; i < len(buf); i++ {
			buf[i] = uint8(i - ways)
		}
		set := &Set{Stack: buf[:ways]}
		want := append([]uint8(nil), set.Stack...)
		for k := 0; k+1 < len(ops); k += 2 {
			way, pos := int(ops[k])%ways, int(ops[k+1])%ways
			before := append([]uint8(nil), want...)
			moveRef(want, way, pos)
			MoveToStackPos(set, way, pos)
			if !bytes.Equal(set.Stack, want) {
				t.Fatalf("ways=%d move way %d to %d from %v: got %v, want %v", ways, way, pos, before, set.Stack, want)
			}
			if !CheckStackInvariant(set) {
				t.Fatalf("ways=%d move way %d to %d: %v is not a permutation", ways, way, pos, set.Stack)
			}
			for i := ways; i < len(buf); i++ {
				if buf[i] != uint8(i-ways) {
					t.Fatalf("ways=%d move way %d to %d wrote past the set: %v", ways, way, pos, buf[ways:])
				}
			}
		}
	})
}
