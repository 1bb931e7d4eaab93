// Package archive implements the durable storage boundary between the
// measurement and analysis layers of the campaign pipeline: a versioned,
// length-prefixed, CRC-checked binary record stream (warts-style) holding
// one AS's full campaign — metadata, per-VP traces, fingerprint
// annotations, alias sets, bdrmap borders, and simulator ground truth.
//
// The on-disk format is a magic line followed by a sequence of framed
// records and a mandatory end trailer:
//
//	magic   "arest.archive.v2\n"               (17 bytes)
//	record  type    uint8
//	        length  uint32 big-endian        (payload bytes)
//	        payload JSON                     (schema fixed per type; the
//	                                          bytes json.Marshal emits)
//	        crc     uint32 big-endian        (CRC-32C over type+length+payload)
//	...
//	end     a TypeEnd record whose payload carries the record and trace
//	        counts; a stream without it is truncated (an interrupted
//	        writer), which readers report as ErrTruncated.
//
// The canonical record order puts all side data (fingerprints, aliases,
// borders, ground truth, degradation) ahead of the trace run, so a
// one-pass streaming consumer can seal its annotation state before the
// first trace arrives. That order is written down once, in Data.Visit:
// WriteData encodes through it and in-memory replays fold through it.
//
// A retired v1 archive (traces before the side data) is rejected with
// ErrBadMagic like any other foreign stream.
//
// Writer and Reader stream one record at a time, so a campaign never needs
// to be wholly resident; Stream in stream.go folds records into a Visitor
// one at a time, and the Data aggregate in data.go is a convenience for
// pipelines that do want everything in memory.
package archive

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic opens every archive. The trailing newline keeps accidental `cat`
// of an archive from gluing into a terminal line.
const Magic = "arest.archive.v2\n"

// Type tags one framed record.
type Type uint8

// Record types. Values are part of the on-disk format and must never be
// renumbered.
const (
	TypeMeta        Type = 1 // campaign metadata (one per archive, first)
	TypeVP          Type = 2 // one vantage point (index, address, trace count)
	TypeTrace       Type = 3 // one probe.Trace with its VP index
	TypeFingerprint Type = 4 // one interface vendor annotation (snmp or ttl)
	TypeAliasSet    Type = 5 // one resolved alias set
	TypeBorder      Type = 6 // one bdrmap owner annotation
	TypeSREnabled   Type = 7 // one ground-truth SR-enabled interface
	TypeDegraded    Type = 8 // measurement degradation summary (at most one)
	TypeEnd         Type = 0x7f
)

func (t Type) String() string {
	switch t {
	case TypeMeta:
		return "meta"
	case TypeVP:
		return "vp"
	case TypeTrace:
		return "trace"
	case TypeFingerprint:
		return "fingerprint"
	case TypeAliasSet:
		return "alias-set"
	case TypeBorder:
		return "border"
	case TypeSREnabled:
		return "sr-enabled"
	case TypeDegraded:
		return "degraded"
	case TypeEnd:
		return "end"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// MaxPayload bounds a single record's payload. It is far above anything
// the pipeline produces; its purpose is to keep a corrupted or hostile
// length field from driving a multi-gigabyte allocation.
const MaxPayload = 1 << 26

var (
	// ErrBadMagic reports a stream that does not start with Magic; the
	// error names the prefix it found.
	ErrBadMagic = errors.New("archive: bad magic (not an arest.archive.v2 stream)")
	// ErrCorrupt reports a CRC mismatch or malformed frame.
	ErrCorrupt = errors.New("archive: corrupt record")
	// ErrTruncated reports a stream that ended without the end trailer —
	// the signature of an interrupted writer.
	ErrTruncated = errors.New("archive: truncated stream (no end trailer)")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer emits one archive. Records are framed and checksummed as they
// are written; Close appends the end trailer. A Writer is not safe for
// concurrent use.
type Writer struct {
	bw      *bufio.Writer
	buf     []byte // trace payload scratch, reused record to record
	records int
	traces  int
	closed  bool
	err     error
}

// NewWriter writes the magic and returns a streaming record writer.
// Record order is the caller's responsibility; WriteData produces the
// canonical order.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, fmt.Errorf("archive: write magic: %w", err)
	}
	return &Writer{bw: bw}, nil
}

// endPayload is the trailer body: record and trace counts let readers
// verify they saw the whole stream.
type endPayload struct {
	Records int `json:"records"`
	Traces  int `json:"traces"`
}

// writeRecord encodes one side-data payload with encoding/json and frames
// it. Trace records take writeTrace instead.
func (w *Writer) writeRecord(t Type, payload any) error {
	if err := w.writable(); err != nil {
		return err
	}
	body, err := json.Marshal(payload)
	if err != nil {
		w.err = fmt.Errorf("archive: encode %s: %w", t, err)
		return w.err
	}
	return w.writeFrame(t, body)
}

// writeTrace encodes one trace record with the reflection-free codec into
// the Writer's reused buffer and frames it; the bytes are those
// json.Marshal would produce.
func (w *Writer) writeTrace(rec TraceRecord) error {
	if err := w.writable(); err != nil {
		return err
	}
	body, err := appendTraceRecord(w.buf[:0], &rec)
	w.buf = body
	if err != nil {
		w.err = fmt.Errorf("archive: encode %s: %w", TypeTrace, err)
		return w.err
	}
	return w.writeFrame(TypeTrace, body)
}

func (w *Writer) writable() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("archive: write after Close")
	}
	return nil
}

// writeFrame frames one payload. The CRC covers the type byte, the length
// field, and the payload, so a flipped bit anywhere in the frame is caught.
func (w *Writer) writeFrame(t Type, body []byte) error {
	if len(body) > MaxPayload {
		w.err = fmt.Errorf("archive: %s payload %d bytes exceeds cap %d", t, len(body), MaxPayload)
		return w.err
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(body)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, body)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		w.err = err
		return err
	}
	if _, err := w.bw.Write(body); err != nil {
		w.err = err
		return err
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc)
	if _, err := w.bw.Write(tail[:]); err != nil {
		w.err = err
		return err
	}
	w.records++
	if t == TypeTrace {
		w.traces++
	}
	return nil
}

// Close writes the end trailer and flushes. The archive is complete only
// after Close returns nil.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	end := endPayload{Records: w.records, Traces: w.traces}
	if err := w.writeRecord(TypeEnd, end); err != nil {
		return err
	}
	w.closed = true
	return w.bw.Flush()
}

// Reader streams records out of an archive.
type Reader struct {
	br      *bufio.Reader
	records int
	traces  int
	done    bool
	offset  int64
}

// NewReader checks the magic and returns a streaming record reader. A
// stream with any other prefix, a retired v1 archive included, fails with
// ErrBadMagic naming the prefix it found.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [len(Magic)]byte
	n, err := io.ReadFull(br, magic[:])
	if err != nil || string(magic[:]) != Magic {
		return nil, fmt.Errorf("%w: %q", ErrBadMagic, magic[:n])
	}
	return &Reader{br: br, offset: int64(len(Magic))}, nil
}

// Next returns the next record's type and raw JSON payload. It returns
// io.EOF after the end trailer has been consumed, ErrTruncated if the
// stream stops without one, and ErrCorrupt on a CRC or framing error. The
// payload buffer is owned by the caller.
func (r *Reader) Next() (Type, []byte, error) { return r.next(nil) }

// next is Next reading the payload into buf's storage when it is large
// enough, for a caller that is done with the previous payload.
func (r *Reader) next(buf []byte) (Type, []byte, error) {
	if r.done {
		return 0, nil, io.EOF
	}
	var hdr [5]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, ErrTruncated
		}
		return 0, nil, fmt.Errorf("%w: header at offset %d: %v", ErrTruncated, r.offset, err)
	}
	t := Type(hdr[0])
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: %s length %d exceeds cap at offset %d", ErrCorrupt, t, n, r.offset)
	}
	body := buf[:0]
	if cap(body) < int(n) {
		body = make([]byte, n)
	}
	body = body[:n]
	if _, err := io.ReadFull(r.br, body); err != nil {
		return 0, nil, fmt.Errorf("%w: payload at offset %d: %v", ErrTruncated, r.offset, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r.br, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: checksum at offset %d: %v", ErrTruncated, r.offset, err)
	}
	crc := crc32.Update(0, castagnoli, hdr[:])
	crc = crc32.Update(crc, castagnoli, body)
	if got := binary.BigEndian.Uint32(tail[:]); got != crc {
		return 0, nil, fmt.Errorf("%w: %s at offset %d: crc %08x, want %08x", ErrCorrupt, t, r.offset, got, crc)
	}
	r.offset += int64(5 + len(body) + 4)
	if t == TypeEnd {
		var end endPayload
		if err := json.Unmarshal(body, &end); err != nil {
			return 0, nil, fmt.Errorf("%w: end trailer: %v", ErrCorrupt, err)
		}
		if end.Records != r.records || end.Traces != r.traces {
			return 0, nil, fmt.Errorf("%w: end trailer counts %d records/%d traces, saw %d/%d",
				ErrCorrupt, end.Records, end.Traces, r.records, r.traces)
		}
		r.done = true
		return t, body, nil
	}
	r.records++
	if t == TypeTrace {
		r.traces++
	}
	return t, body, nil
}
