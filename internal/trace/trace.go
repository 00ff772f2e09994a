// Package trace defines a compact binary on-disk format for instruction
// traces (the moral equivalent of ChampSim's .champsimtrace.xz files,
// using gzip from the standard library) plus a reader that implements
// workload.Stream, so recorded traces and synthetic generators are
// interchangeable inputs to the simulator.
//
// Format: the magic header "ITPT\x01", then one record per instruction:
//
//	flags  byte    bit0 IsBranch, bit1 Taken, bit2 has-load,
//	                bit3 has-store, bit4 DepLoad
//	pc     uvarint delta-encoded against the previous PC (zigzag)
//	load   uvarint present iff bit2 (absolute address)
//	store  uvarint present iff bit3 (absolute address)
//
// Every PC lies below arch.PCLimit (4 GB): the Writer refuses to write
// any other, and the Reader rejects one as a corrupt record.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"itpsim/internal/arch"
	"itpsim/internal/workload"
)

var magic = [5]byte{'I', 'T', 'P', 'T', 1}

// Flag bits.
const (
	flagBranch = 1 << iota
	flagTaken
	flagLoad
	flagStore
	flagDepLoad
)

// Writer streams instructions to a gzip-compressed trace.
type Writer struct {
	gz     *gzip.Writer
	w      *bufio.Writer
	lastPC uint64
	n      uint64
	buf    [binary.MaxVarintLen64]byte
}

// NewWriter wraps out; call Close to flush.
func NewWriter(out io.Writer) (*Writer, error) {
	gz := gzip.NewWriter(out)
	w := &Writer{gz: gz, w: bufio.NewWriter(gz)}
	if _, err := w.w.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return w, nil
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func (w *Writer) uvarint(v uint64) error {
	n := binary.PutUvarint(w.buf[:], v)
	_, err := w.w.Write(w.buf[:n])
	return err
}

// Write appends one instruction. It refuses a PC at or above
// arch.PCLimit, which no reader would accept.
func (w *Writer) Write(in *workload.Instr) error {
	if in.PC >= arch.PCLimit {
		return fmt.Errorf("trace: PC %#x is not below the 4 GB code space", in.PC)
	}
	var flags byte
	if in.IsBranch {
		flags |= flagBranch
	}
	if in.Taken {
		flags |= flagTaken
	}
	if in.LoadAddr != 0 {
		flags |= flagLoad
	}
	if in.StoreAddr != 0 {
		flags |= flagStore
	}
	if in.DepLoad {
		flags |= flagDepLoad
	}
	if err := w.w.WriteByte(flags); err != nil {
		return err
	}
	if err := w.uvarint(zigzag(int64(in.PC) - int64(w.lastPC))); err != nil {
		return err
	}
	w.lastPC = uint64(in.PC)
	if in.LoadAddr != 0 {
		if err := w.uvarint(uint64(in.LoadAddr)); err != nil {
			return err
		}
	}
	if in.StoreAddr != 0 {
		if err := w.uvarint(uint64(in.StoreAddr)); err != nil {
			return err
		}
	}
	w.n++
	return nil
}

// Count returns instructions written so far.
func (w *Writer) Count() uint64 { return w.n }

// Close flushes and closes the compressed stream (not the underlying
// writer).
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	return w.gz.Close()
}

// Record copies n instructions from s into w. It returns the number
// actually copied (s may end sooner).
func Record(w *Writer, s workload.Stream, n uint64) (uint64, error) {
	var in workload.Instr
	var i uint64
	for ; i < n; i++ {
		if !s.Next(&in) {
			break
		}
		if err := w.Write(&in); err != nil {
			return i, err
		}
	}
	return i, nil
}

// Decode hardening bounds. Traces can come from other machines or be
// damaged in transit, so the reader treats every decoded value as
// untrusted: unknown flag bits, non-canonical addresses, a PC at or
// above arch.PCLimit, and a zero memory-operand address (reserved by the
// format) are all rejected with an error naming the byte offset of the
// corrupt record. Record decoding
// never allocates based on decoded values — uvarints are bounded by
// binary.ReadUvarint's 10-byte limit and everything else is fixed-size —
// so a hostile trace cannot trigger oversized allocations.
const (
	// flagsReserved are the flag bits the format does not define; a set
	// reserved bit means the stream is corrupt or from a newer version.
	flagsReserved = ^byte(flagBranch | flagTaken | flagLoad | flagStore | flagDepLoad)
	// maxAddr bounds decoded data addresses to the canonical 48-bit
	// space every generator and trace writer stays within.
	maxAddr = uint64(1) << 48
)

// countReader counts bytes consumed from the decompressed stream so
// decode errors can name the offset of the corrupt record.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Reader decodes a trace; it implements workload.Stream.
type Reader struct {
	gz     *gzip.Reader // nil for raw (uncompressed) streams
	cr     *countReader
	r      *bufio.Reader
	lastPC uint64
	err    error
}

// NewReader validates the header and returns a streaming reader over a
// gzip-compressed trace (the on-disk format the Writer produces).
func NewReader(in io.Reader) (*Reader, error) {
	gz, err := gzip.NewReader(in)
	if err != nil {
		return nil, fmt.Errorf("trace: open: %w", err)
	}
	r, err := newReader(gz)
	if err != nil {
		return nil, err
	}
	r.gz = gz
	return r, nil
}

// NewRawReader reads an uncompressed record stream (magic header plus
// records, no gzip layer). It exists so the record decoder can be fuzzed
// and tested directly, without the fuzzer having to forge gzip framing.
func NewRawReader(in io.Reader) (*Reader, error) {
	return newReader(in)
}

func newReader(in io.Reader) (*Reader, error) {
	cr := &countReader{r: in}
	r := &Reader{cr: cr, r: bufio.NewReader(cr)}
	var hdr [5]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if hdr != magic {
		return nil, errors.New("trace: bad magic (not an itpsim trace)")
	}
	return r, nil
}

// offset returns the decompressed-stream byte offset of the next unread
// byte, for error reports.
func (r *Reader) offset() int64 { return r.cr.n - int64(r.r.Buffered()) }

// corrupt records a terminal decode error at the given record offset.
func (r *Reader) corrupt(off int64, format string, args ...any) bool {
	r.err = fmt.Errorf("trace: corrupt record at byte offset %d: %s", off, fmt.Sprintf(format, args...))
	return false
}

// Next implements workload.Stream.
func (r *Reader) Next(in *workload.Instr) bool {
	if r.err != nil {
		return false
	}
	off := r.offset()
	flags, err := r.r.ReadByte()
	if err != nil {
		r.err = err // clean EOF at a record boundary stays io.EOF
		return false
	}
	if flags&flagsReserved != 0 {
		return r.corrupt(off, "unknown flag bits %#02x", flags&flagsReserved)
	}
	delta, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record at byte offset %d: %w", off, noEOF(err))
		return false
	}
	*in = workload.Instr{}
	pc := uint64(int64(r.lastPC) + unzigzag(delta))
	if pc >= arch.PCLimit {
		return r.corrupt(off, "PC %#x is not below the 4 GB code space", pc)
	}
	r.lastPC = pc
	in.PC = pc
	in.IsBranch = flags&flagBranch != 0
	in.Taken = flags&flagTaken != 0
	in.DepLoad = flags&flagDepLoad != 0
	if flags&flagLoad != 0 {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("trace: truncated load at byte offset %d: %w", off, noEOF(err))
			return false
		}
		if v == 0 || v >= maxAddr {
			return r.corrupt(off, "invalid load address %#x", v)
		}
		in.LoadAddr = v
	}
	if flags&flagStore != 0 {
		v, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("trace: truncated store at byte offset %d: %w", off, noEOF(err))
			return false
		}
		if v == 0 || v >= maxAddr {
			return r.corrupt(off, "invalid store address %#x", v)
		}
		in.StoreAddr = v
	}
	return true
}

// NextBatch implements workload.NextBatcher so decode-ahead ingestion
// (workload.Prefetch) fills its batches without a per-record interface
// call. A short return only means the trace ended or went bad; Err
// distinguishes the two.
func (r *Reader) NextBatch(buf []workload.Instr) int {
	for i := range buf {
		if !r.Next(&buf[i]) {
			return i
		}
	}
	return len(buf)
}

// noEOF converts io.EOF inside a record into io.ErrUnexpectedEOF: a
// stream that ends mid-record is truncated, not cleanly finished, and
// must not be mistaken for a normal end of trace.
func noEOF(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Err returns the terminal error, if Next stopped for a reason other than
// a clean end of stream.
func (r *Reader) Err() error {
	if r.err == io.EOF {
		return nil
	}
	return r.err
}

// Close releases the decompressor (a no-op for raw readers).
func (r *Reader) Close() error {
	if r.gz == nil {
		return nil
	}
	return r.gz.Close()
}
