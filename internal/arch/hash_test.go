package arch

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// foldValues cover every significant-byte count from 0 to 8 and values
// with interior zero bytes, the cases where Word folds zero high bytes
// by a prime power instead of byte by byte.
var foldValues = []uint64{
	0, 0x7f, 0x1234, 0x123456, 0xdeadbeef, 0x123456789a, 0x123456789abc,
	0x123456789abcde, ^uint64(0),
	1, 0xff, 0x100, 0xff00, 1 << 56, 1 << 63, 0x0100000000000001,
}

// leWord is v's little-endian byte encoding, the bytes Word folds.
func leWord(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// TestStateHashMatchesFNV pins the fold to the reference FNV-1a: Word
// must hash exactly like feeding the value's little-endian bytes to the
// standard library implementation, so the format is stable and
// documented, not an accident of this file.
func TestStateHashMatchesFNV(t *testing.T) {
	ref := fnv.New64a()
	h := NewStateHash()
	for _, v := range foldValues {
		ref.Write(leWord(v))
		h.Word(v)
		if h.Sum() != ref.Sum64() {
			t.Fatalf("after Word(%#x): StateHash %016x, reference FNV-1a %016x", v, h.Sum(), ref.Sum64())
		}
	}
}

// FuzzStateHashWord checks the fold against the standard library on
// arbitrary bytes: the input, zero-padded to whole words and folded as
// little-endian words through Word, each followed by a Bool of the
// word's low bit, must hash like hash/fnv over the same byte stream.
func FuzzStateHashWord(f *testing.F) {
	for _, v := range foldValues {
		f.Add(leWord(v))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := fnv.New64a()
		h := NewStateHash()
		for len(data) > 0 {
			var le [8]byte
			data = data[copy(le[:], data):]
			v := binary.LittleEndian.Uint64(le[:])
			ref.Write(le[:])
			h.Word(v)
			ref.Write(leWord(v & 1))
			h.Bool(v&1 == 1)
		}
		if h.Sum() != ref.Sum64() {
			t.Fatalf("StateHash %016x, reference FNV-1a %016x", h.Sum(), ref.Sum64())
		}
	})
}

func TestStateHashEmpty(t *testing.T) {
	h := NewStateHash()
	if h.Sum() != fnv.New64a().Sum64() {
		t.Errorf("empty hash should equal the FNV-1a offset basis, got %016x", h.Sum())
	}
}

func TestStateHashBool(t *testing.T) {
	ht := NewStateHash()
	ht.Bool(true)
	hf := NewStateHash()
	hf.Bool(false)
	if ht.Sum() == hf.Sum() {
		t.Error("Bool(true) and Bool(false) should fold differently")
	}
	h1 := NewStateHash()
	h1.Word(1)
	if ht.Sum() != h1.Sum() {
		t.Error("Bool(true) should fold like Word(1)")
	}
	h0 := NewStateHash()
	h0.Word(0)
	if hf.Sum() != h0.Sum() {
		t.Error("Bool(false) should fold like Word(0)")
	}
}

func TestStateHashOrderSensitive(t *testing.T) {
	a := NewStateHash()
	a.Word(1)
	a.Word(2)
	b := NewStateHash()
	b.Word(2)
	b.Word(1)
	if a.Sum() == b.Sum() {
		t.Error("fold must be order-sensitive")
	}
}
