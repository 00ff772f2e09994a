package trace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"strings"
	"testing"

	"itpsim/internal/arch"
	"itpsim/internal/workload"
)

// rawTrace builds the uncompressed record-stream bytes (magic + records)
// for the given instructions, by writing a normal trace and stripping the
// gzip layer.
func rawTrace(t testing.TB, instrs []workload.Instr) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gz, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func sampleInstrs() []workload.Instr {
	return []workload.Instr{
		{PC: 0x400000},
		{PC: 0x400004, IsBranch: true, Taken: true},
		{PC: 0x400100, LoadAddr: 0x10000000, DepLoad: true},
		{PC: 0x400104, StoreAddr: 0x20000000},
		{PC: 0x3ff000},
		{PC: 0x400000, LoadAddr: 0x1, StoreAddr: 0x2},
	}
}

// drain iterates a reader to exhaustion with a record bound, so corrupt
// input can neither panic nor loop forever.
func drain(r *Reader, limit int) (int, error) {
	var in workload.Instr
	n := 0
	for n < limit && r.Next(&in) {
		n++
	}
	return n, r.Err()
}

func TestCorruptReservedFlags(t *testing.T) {
	raw := rawTrace(t, sampleInstrs()[:1])
	raw = append(raw, 0xE0) // record with undefined flag bits
	r, err := NewRawReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := drain(r, 100); err == nil {
		t.Fatalf("reserved flag bits should fail decode (read %d records)", n)
	} else if !strings.Contains(err.Error(), "byte offset") {
		t.Errorf("error should name the byte offset, got: %v", err)
	}
}

func TestTruncatedMidRecord(t *testing.T) {
	raw := rawTrace(t, sampleInstrs())
	// Cut inside the final record: drop the last byte.
	r, err := NewRawReader(bytes.NewReader(raw[:len(raw)-1]))
	if err != nil {
		t.Fatal(err)
	}
	_, derr := drain(r, 100)
	if derr == nil {
		t.Fatal("truncated record should surface an error")
	}
	if !errors.Is(derr, io.ErrUnexpectedEOF) {
		t.Errorf("mid-record truncation should be io.ErrUnexpectedEOF, got: %v", derr)
	}
	if !strings.Contains(derr.Error(), "byte offset") {
		t.Errorf("error should name the byte offset, got: %v", derr)
	}
}

func TestZeroOperandAddressRejected(t *testing.T) {
	raw := rawTrace(t, sampleInstrs()[:1])
	// flags=load, pc delta 0, load address 0 (reserved by the format).
	raw = append(raw, flagLoad, 0x00, 0x00)
	r, err := NewRawReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(r, 100); err == nil || !strings.Contains(err.Error(), "invalid load address") {
		t.Errorf("zero load address should be rejected, got: %v", err)
	}
}

func TestNonCanonicalPCRejected(t *testing.T) {
	raw := rawTrace(t, nil)
	// One record whose zigzag delta lands the PC far past 2^48.
	var delta [10]byte
	n := putUvarintBytes(delta[:], zigzag(1<<60))
	raw = append(raw, 0x00)
	raw = append(raw, delta[:n]...)
	r, err := NewRawReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := drain(r, 100); err == nil || !strings.Contains(err.Error(), "not below the 4 GB code space") {
		t.Errorf("out-of-range PC should be rejected, got: %v", err)
	}
}

// TestPCBound: the last PC below arch.PCLimit round-trips, and the bound
// itself is refused by the Writer and, reached by a delta from that
// last PC, rejected by the Reader as a corrupt record.
func TestPCBound(t *testing.T) {
	last := workload.Instr{PC: arch.PCLimit - 1, LoadAddr: 0x1000}
	out := roundTrip(t, []workload.Instr{{PC: 0x400000}, last})
	if len(out) != 2 || out[1] != last {
		t.Fatalf("PC %#x did not round-trip: %+v", last.PC, out)
	}

	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&workload.Instr{PC: arch.PCLimit}); err == nil || w.Count() != 0 {
		t.Errorf("Writer accepted PC %#x (count %d, err %v)", uint64(arch.PCLimit), w.Count(), err)
	}

	raw := rawTrace(t, []workload.Instr{last})
	var delta [10]byte
	n := putUvarintBytes(delta[:], zigzag(1)) // one past the last PC
	raw = append(raw, 0x00)
	raw = append(raw, delta[:n]...)
	r, err := NewRawReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := drain(r, 100); n != 1 || err == nil || !strings.Contains(err.Error(), "not below the 4 GB code space") {
		t.Errorf("Reader read %d records, error %v; want 1 and PC %#x rejected", n, err, uint64(arch.PCLimit))
	}
}

// TestBitFlipSweep flips every byte of a small valid raw trace one at a
// time: every variant must decode without panicking, ending either
// cleanly or with a structured error.
func TestBitFlipSweep(t *testing.T) {
	raw := rawTrace(t, sampleInstrs())
	for i := range raw {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), raw...)
			mut[i] ^= 1 << bit
			r, err := NewRawReader(bytes.NewReader(mut))
			if err != nil {
				continue // header damage: rejected at open, fine
			}
			drain(r, 1000)
		}
	}
}

// putUvarintBytes is binary.PutUvarint without importing it twice under a
// different name in tests.
func putUvarintBytes(buf []byte, v uint64) int {
	i := 0
	for v >= 0x80 {
		buf[i] = byte(v) | 0x80
		v >>= 7
		i++
	}
	buf[i] = byte(v)
	return i + 1
}

// FuzzReader feeds arbitrary bytes through both the raw record decoder
// and the gzip-framed entry point. The property is memory safety: no
// panic, no unbounded loop, no oversized allocation — corrupt input must
// always land in a structured error.
func FuzzReader(f *testing.F) {
	valid := rawTrace(f, sampleInstrs())
	f.Add(valid)
	// Bit-flipped seed variants steer the fuzzer at interesting decode
	// paths straight away.
	for _, i := range []int{0, 4, 5, 6, len(valid) / 2, len(valid) - 1} {
		if i < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x40
			f.Add(mut)
		}
	}
	f.Add(valid[:len(valid)-2]) // truncated
	f.Add([]byte("ITPT\x01"))   // header only
	f.Add([]byte{})

	// A gzip-framed seed for the compressed entry point.
	var gzbuf bytes.Buffer
	w, err := NewWriter(&gzbuf)
	if err != nil {
		f.Fatal(err)
	}
	instrs := sampleInstrs()
	for i := range instrs {
		w.Write(&instrs[i])
	}
	w.Close()
	f.Add(gzbuf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := NewRawReader(bytes.NewReader(data)); err == nil {
			drain(r, 1<<16)
		}
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			drain(r, 1<<16)
			r.Close()
		}
	})
}
