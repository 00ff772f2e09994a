package replacement

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// identityStack returns a stack of the given associativity in its
// initial order: way w at position w.
func identityStack(ways int) []uint8 {
	stack := make([]uint8, ways)
	InitStack(stack)
	return stack
}

// TestCheckStackInvariantRejectsAndAllocatesNothing covers a duplicate
// position and positions past the set, in every word of the check's
// bitmask up to the largest byte, and holds the check at zero
// allocations: the auditor runs it on every set of every cache and TLB
// on every pass.
func TestCheckStackInvariantRejectsAndAllocatesNothing(t *testing.T) {
	for _, ways := range []int{1, 4, 12, 16, 128} {
		stack := identityStack(ways)
		MoveToStackPos(stack, ways-1, 0)
		if !CheckStackInvariant(stack) {
			t.Errorf("ways=%d: permutation rejected", ways)
		}
		if n := testing.AllocsPerRun(100, func() { CheckStackInvariant(stack) }); n != 0 {
			t.Errorf("ways=%d: %v allocations per check, want 0", ways, n)
		}
		for _, bad := range []int{ways, 64, 128, 200, 255} {
			if bad >= ways {
				stack[0] = uint8(bad)
				if CheckStackInvariant(stack) {
					t.Errorf("ways=%d: out-of-range position %d accepted", ways, bad)
				}
			}
		}
		if ways > 1 {
			stack[0] = stack[1]
			if CheckStackInvariant(stack) {
				t.Errorf("ways=%d: duplicate position accepted", ways)
			}
		}
	}
}

func TestMoveToStackPos(t *testing.T) {
	stack := identityStack(4) // 0,1,2,3
	MoveToStackPos(stack, 3, 0)
	if stack[3] != 0 {
		t.Errorf("way3 stack = %d, want 0", stack[3])
	}
	// others shifted down: way0→1, way1→2, way2→3
	if stack[0] != 1 || stack[1] != 2 || stack[2] != 3 {
		t.Errorf("shift wrong: %v %v %v", stack[0], stack[1], stack[2])
	}
	if !CheckStackInvariant(stack) {
		t.Error("invariant broken")
	}
	// Move down: way3 (pos 0) to pos 2.
	MoveToStackPos(stack, 3, 2)
	if stack[3] != 2 || !CheckStackInvariant(stack) {
		t.Errorf("downward move wrong: %v", stack)
	}
	// No-op move.
	MoveToStackPos(stack, 3, 2)
	if stack[3] != 2 || !CheckStackInvariant(stack) {
		t.Error("no-op move broke invariant")
	}
}

// Property: arbitrary sequences of moves preserve the permutation invariant.
func TestMoveInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		stack := identityStack(12)
		for _, op := range ops {
			way := int(op) % 12
			pos := int(op>>4) % 12
			MoveToStackPos(stack, way, pos)
			if !CheckStackInvariant(stack) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStackPosOf(t *testing.T) {
	stack := identityStack(4)
	for pos := 0; pos < 4; pos++ {
		w := StackPosOf(stack, pos)
		if w < 0 || int(stack[w]) != pos {
			t.Errorf("StackPosOf(%d) wrong", pos)
		}
	}
	if StackPosOf(stack, 99) != -1 {
		t.Error("missing pos should return -1")
	}
}

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
// same (way, pos) moves from a random permutation of 1–128 ways, every
// associativity config admits for a cache or a TLB; at 128 ways the
// deepest position, 127, is the largest the word-at-a-time kernel
// allows. After every move the two must agree, the positions must still
// be a permutation, and the bytes just past the set must be untouched:
// in a cache or a TLB they are the next set's positions.
func FuzzMoveToStackPos(f *testing.F) {
	for _, ways := range []uint8{4, 8, 12, 16, 128} {
		last := ways - 1
		f.Add(ways, uint64(ways), []byte{0, last, last, 0, 1, last / 2, last / 2, 1, 2, 0})
	}
	f.Fuzz(func(t *testing.T, n uint8, seed uint64, ops []byte) {
		ways := int(n) % 128
		if ways == 0 {
			ways = 128
		}
		const guard = 8
		buf := make([]uint8, ways+guard)
		for i, p := range rand.New(rand.NewSource(int64(seed))).Perm(ways) {
			buf[i] = uint8(p)
		}
		for i := ways; i < len(buf); i++ {
			buf[i] = uint8(i - ways)
		}
		stack := buf[:ways]
		want := append([]uint8(nil), stack...)
		for k := 0; k+1 < len(ops); k += 2 {
			way, pos := int(ops[k])%ways, int(ops[k+1])%ways
			before := append([]uint8(nil), want...)
			moveRef(want, way, pos)
			MoveToStackPos(stack, way, pos)
			if !bytes.Equal(stack, want) {
				t.Fatalf("ways=%d move way %d to %d from %v: got %v, want %v", ways, way, pos, before, stack, want)
			}
			if !CheckStackInvariant(stack) {
				t.Fatalf("ways=%d move way %d to %d: %v is not a permutation", ways, way, pos, stack)
			}
			for i := ways; i < len(buf); i++ {
				if buf[i] != uint8(i-ways) {
					t.Fatalf("ways=%d move way %d to %d wrote past the set: %v", ways, way, pos, buf[ways:])
				}
			}
		}
	})
}
