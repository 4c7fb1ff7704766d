package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text codec stores one reference per line:
//
//	<kind> <addr> [pid]
//
// where kind is "ifetch", "load", or "store" (the single-letter aliases
// "i", "l"/"r", and "s"/"w" are accepted on input), addr is a decimal or
// 0x-prefixed hexadecimal byte address, and pid is an optional decimal
// process id defaulting to 0. Blank lines and lines starting with '#' are
// ignored. The format is deliberately close to Dinero's din format so that
// externally produced traces can be adapted with a one-line awk script.

// TextWriter writes references in the text format.
type TextWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

// NewTextWriter returns a TextWriter emitting to w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{w: bufio.NewWriter(w)}
}

// Write emits one reference.
func (t *TextWriter) Write(r Ref) error {
	if t.err != nil {
		return t.err
	}
	if !r.Kind.Valid() {
		t.err = fmt.Errorf("trace: cannot encode invalid kind %d", r.Kind)
		return t.err
	}
	if r.PID == 0 {
		_, t.err = fmt.Fprintf(t.w, "%s %#x\n", r.Kind, r.Addr)
	} else {
		_, t.err = fmt.Fprintf(t.w, "%s %#x %d\n", r.Kind, r.Addr, r.PID)
	}
	if t.err == nil {
		t.n++
	}
	return t.err
}

// Flush flushes buffered output.
func (t *TextWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// TextReader reads references in the text format. It implements Stream.
type TextReader struct {
	sc   *bufio.Scanner
	line int
}

// NewTextReader returns a TextReader consuming from r.
func NewTextReader(r io.Reader) *TextReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	return &TextReader{sc: sc}
}

// Next returns the next reference, or io.EOF at end of input.
func (t *TextReader) Next() (Ref, error) {
	for t.sc.Scan() {
		t.line++
		line := strings.TrimSpace(t.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		ref, err := parseTextLine(line)
		if err != nil {
			return Ref{}, fmt.Errorf("line %d: %w (%w)", t.line, err, ErrCorrupt)
		}
		return ref, nil
	}
	if err := t.sc.Err(); err != nil {
		return Ref{}, err
	}
	return Ref{}, io.EOF
}

// resync recovers from a corrupt line. The scanner has already consumed
// the offending line, and every line is an independent record, so recovery
// is trivially "carry on". resync implements the hook the Lenient wrapper
// uses.
func (t *TextReader) resync() bool { return true }

func parseTextLine(line string) (Ref, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 {
		return Ref{}, fmt.Errorf("want 2 or 3 fields, got %d", len(fields))
	}
	kind, err := parseKindToken(fields[0])
	if err != nil {
		return Ref{}, err
	}
	addr, err := strconv.ParseUint(fields[1], 0, 64)
	if err != nil {
		return Ref{}, fmt.Errorf("bad address %q: %v", fields[1], err)
	}
	var pid uint64
	if len(fields) == 3 {
		pid, err = strconv.ParseUint(fields[2], 10, 16)
		if err != nil {
			return Ref{}, fmt.Errorf("bad pid %q: %v", fields[2], err)
		}
	}
	return Ref{Kind: kind, Addr: addr, PID: uint16(pid)}, nil
}

func parseKindToken(tok string) (Kind, error) {
	switch tok {
	case "i", "2": // "2" is the din code for an instruction fetch
		return IFetch, nil
	case "l", "r", "0": // din code 0: data read
		return Load, nil
	case "s", "w", "1": // din code 1: data write
		return Store, nil
	}
	return ParseKind(tok)
}
