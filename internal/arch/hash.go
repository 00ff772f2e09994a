package arch

// StateHash is an FNV-1a-style 64-bit running hash of architectural
// state. Components fold their tag/metadata arrays into it word by word;
// two simulations are in identical architectural state iff their folds
// produce the same value. The fold is pure integer arithmetic — no
// allocation, no floats, no iteration-order sensitivity as long as
// callers visit state in a fixed structural order — so beacon streams are
// bit-identical across runs, ingestion modes, and race/norace builds.
type StateHash uint64

const (
	fnvOffset64 StateHash = 14695981039346656037
	fnvPrime64  StateHash = 1099511628211
)

// primePow[k] is fnvPrime64^k. FNV-1a folds a zero byte as a bare
// multiply by the prime (x ^ 0 == x), so k zero bytes in a row fold as
// one multiply by primePow[k].
var primePow = func() (p [9]StateHash) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime64
	}
	return p
}()

// zeroWords[n] is fnvPrime64^(8n): n zero words in a row fold as one
// multiply by it.
var zeroWords = func() (p [16]StateHash) {
	p[0] = 1
	for n := 1; n < len(p); n++ {
		p[n] = p[n-1] * primePow[8]
	}
	return p
}()

// NewStateHash returns the canonical initial value.
func NewStateHash() StateHash { return fnvOffset64 }

// Word folds one 64-bit value as its eight little-endian bytes, exactly
// as byte-wise FNV-1a would. Only the significant low bytes take the
// xor-multiply step; the zero high bytes above them fold as one multiply
// by a prime power, so a value below 256 costs a single multiply.
func (h *StateHash) Word(v uint64) {
	if v < 0x100 {
		*h = (*h ^ StateHash(v)) * primePow[8]
		return
	}
	x, k := *h, 8 // k counts the zero high bytes
	for ; v != 0; v >>= 8 {
		x = (x ^ StateHash(v&0xff)) * fnvPrime64
		k--
	}
	*h = x * primePow[k]
}

// Bool folds one boolean as a 0/1 word.
func (h *StateHash) Bool(b bool) {
	x := *h
	if b {
		x ^= 1
	}
	*h = x * primePow[8]
}

// Zeros folds n zero words (n below 16) in one multiply, exactly as n
// calls of Word(0) would.
func (h *StateHash) Zeros(n int) { *h *= zeroWords[n] }

// Sum returns the current fold.
func (h *StateHash) Sum() uint64 { return uint64(*h) }

// StateHasher is implemented by components that can fold their complete
// architectural state (tags, metadata, replacement state, in-flight
// bookkeeping) into a StateHash. Implementations must visit state in a
// fixed structural order and must not allocate: beacons are emitted from
// the simulation hot loop's cold boundary path.
type StateHasher interface {
	HashState(h *StateHash)
}
