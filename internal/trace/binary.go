package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The binary codec is a compact delta-encoded format for large traces:
//
//	magic "MLCT" | version byte | records...
//
// Each record is one byte of header followed by varints:
//
//	header = kind (2 bits) | pidChanged (1 bit) | reserved (5 bits)
//	zigzag-varint address delta from the previous reference's address
//	varint pid (only when pidChanged)
//
// Sequential instruction streams therefore cost two bytes per reference.

const (
	binaryMagic   = "MLCT"
	binaryVersion = 1
)

// BinaryWriter writes references in the binary format.
type BinaryWriter struct {
	w        *bufio.Writer
	prevAddr uint64
	prevPID  uint16
	started  bool
	err      error
}

// NewBinaryWriter returns a BinaryWriter emitting to w. The header is
// written lazily on the first Write so that constructing a writer never
// fails.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: bufio.NewWriter(w)}
}

// Write emits one reference.
func (b *BinaryWriter) Write(r Ref) error {
	if b.err != nil {
		return b.err
	}
	if !r.Kind.Valid() {
		b.err = fmt.Errorf("trace: cannot encode invalid kind %d", r.Kind)
		return b.err
	}
	if !b.started {
		b.started = true
		if _, b.err = b.w.WriteString(binaryMagic); b.err != nil {
			return b.err
		}
		if b.err = b.w.WriteByte(binaryVersion); b.err != nil {
			return b.err
		}
	}
	header := byte(r.Kind)
	if r.PID != b.prevPID {
		header |= 1 << 2
	}
	if b.err = b.w.WriteByte(header); b.err != nil {
		return b.err
	}
	delta := int64(r.Addr - b.prevAddr) // two's-complement wraparound delta
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], delta)
	if _, b.err = b.w.Write(buf[:n]); b.err != nil {
		return b.err
	}
	if r.PID != b.prevPID {
		n = binary.PutUvarint(buf[:], uint64(r.PID))
		if _, b.err = b.w.Write(buf[:n]); b.err != nil {
			return b.err
		}
		b.prevPID = r.PID
	}
	b.prevAddr = r.Addr
	return nil
}

// Flush flushes buffered output, writing the header even for empty traces.
func (b *BinaryWriter) Flush() error {
	if b.err != nil {
		return b.err
	}
	if !b.started {
		b.started = true
		if _, b.err = b.w.WriteString(binaryMagic); b.err != nil {
			return b.err
		}
		if b.err = b.w.WriteByte(binaryVersion); b.err != nil {
			return b.err
		}
	}
	b.err = b.w.Flush()
	return b.err
}

// BinaryReader reads references in the binary format. It implements Stream.
type BinaryReader struct {
	r        *bufio.Reader
	prevAddr uint64
	prevPID  uint16
	started  bool
}

// NewBinaryReader returns a BinaryReader consuming from r.
func NewBinaryReader(r io.Reader) *BinaryReader {
	return &BinaryReader{r: bufio.NewReader(r)}
}

func (b *BinaryReader) readHeader() error {
	var magic [5]byte
	if _, err := io.ReadFull(b.r, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("trace: short binary header (%w)", ErrCorrupt)
		}
		return err
	}
	if string(magic[:4]) != binaryMagic {
		return fmt.Errorf("trace: bad magic %q (%w)", magic[:4], ErrCorrupt)
	}
	if magic[4] != binaryVersion {
		return fmt.Errorf("trace: unsupported version %d (%w)", magic[4], ErrCorrupt)
	}
	return nil
}

// Next returns the next reference, or io.EOF at end of input.
func (b *BinaryReader) Next() (Ref, error) {
	if !b.started {
		if err := b.readHeader(); err != nil {
			return Ref{}, err
		}
		b.started = true
	}
	header, err := b.r.ReadByte()
	if err == io.EOF {
		return Ref{}, io.EOF
	}
	if err != nil {
		return Ref{}, err
	}
	kind := Kind(header & 0x3)
	if !kind.Valid() {
		return Ref{}, fmt.Errorf("trace: invalid kind bits %d (%w)", header&0x3, ErrCorrupt)
	}
	if header>>3 != 0 {
		// The writer keeps the five reserved bits clear; any set bit means
		// the stream is damaged or misaligned.
		return Ref{}, fmt.Errorf("trace: reserved header bits %#x set (%w)", header, ErrCorrupt)
	}
	delta, err := binary.ReadVarint(b.r)
	if err != nil {
		return Ref{}, truncated(err)
	}
	b.prevAddr += uint64(delta)
	if header&(1<<2) != 0 {
		pid, err := binary.ReadUvarint(b.r)
		if err != nil {
			return Ref{}, truncated(err)
		}
		if pid > 0xFFFF {
			return Ref{}, fmt.Errorf("trace: pid %d out of range (%w)", pid, ErrCorrupt)
		}
		b.prevPID = uint16(pid)
	}
	return Ref{Kind: kind, Addr: b.prevAddr, PID: b.prevPID}, nil
}

func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("trace: truncated record (%w)", ErrCorrupt)
	}
	// encoding/binary reports an over-long varint with an unexported error;
	// match it by message. An overflowing varint is stream damage, not I/O.
	if strings.Contains(err.Error(), "overflow") {
		return fmt.Errorf("trace: varint overflow (%w)", ErrCorrupt)
	}
	return err
}

// plausibleHeader reports whether a byte could begin a record: the two kind
// bits name a defined kind and the five reserved bits are clear.
func plausibleHeader(c byte) bool {
	return c>>3 == 0 && c&0x3 <= byte(Store)
}

// resync advances the reader past corrupt bytes to the next position that
// parses as a complete record (plausible header byte, well-formed address
// varint, and — when flagged — a well-formed in-range pid varint). It
// reports whether such a position was found before end of input. The
// running address/pid state is kept: the damaged record's delta is lost,
// so subsequent addresses may be offset — the price of salvaging the rest
// of the stream. resync implements the hook the Lenient wrapper uses.
func (b *BinaryReader) resync() bool {
	if !b.started {
		return false // header corruption is not recoverable
	}
	for {
		buf, err := b.r.Peek(1)
		if err != nil {
			return false
		}
		if plausibleHeader(buf[0]) && b.plausibleRecordAhead() {
			return true
		}
		b.r.Discard(1)
	}
}

// plausibleRecordAhead checks, without consuming input, that the bytes at
// the current position decode as one full record. A truncated tail (record
// start but not enough bytes) is treated as implausible: resync keeps
// scanning and eventually reports failure, ending the stream.
func (b *BinaryReader) plausibleRecordAhead() bool {
	const max = 1 + 2*binary.MaxVarintLen64
	buf, _ := b.r.Peek(max) // short read near EOF is fine; parse what's there
	if len(buf) < 2 {
		return false
	}
	_, n := binary.Varint(buf[1:])
	if n <= 0 {
		return false
	}
	if buf[0]&(1<<2) != 0 {
		pid, m := binary.Uvarint(buf[1+n:])
		if m <= 0 || pid > 0xFFFF {
			return false
		}
	}
	return true
}
