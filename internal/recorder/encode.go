package recorder

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Wire format (binary mode), all integers little-endian:
//
//	header:  magic "DCREC\x00" | u16 version | u32 metaLen | meta JSON
//	frame:   u8 kind | u32 payloadLen | payload | u32 CRC32-IEEE(kind ‖ payload)
//
// Open payload:  u32 stream | StreamInfo JSON
// Serve payload: u32 stream | f64 time | u16 server | u16 from |
//                u8 flags (bit0 hit) | u16 drops | f64 cost |
//                f64 optimal | u8 traceLen | trace bytes
//
// NDJSON mode is the same stream as text: a header line
// {"format":"dcrec","version":2,...} followed by one Record per line.
// The full specification, including compatibility rules, is DESIGN.md §12.

// Format constants.
const (
	// FormatVersion is the wire version this build writes, and the only
	// one it reads: a file of any other version is refused with an
	// "unsupported format version" error. Version 2 changed no byte of the
	// layout; it marks the cost summation order the recorded cumulative
	// costs were computed in (see DESIGN.md §12.1).
	FormatVersion uint16 = 2

	// ModeBinary and ModeNDJSON name the two encodings.
	ModeBinary = "binary"
	ModeNDJSON = "ndjson"

	// maxFramePayload bounds one frame; a corrupt length field past it is
	// treated as a torn tail rather than attempted as an allocation.
	maxFramePayload = 1 << 20

	// maxTraceID bounds the trace-id field (ids are 32 hex chars; the
	// byte-length prefix allows up to 255).
	maxTraceID = 255

	// frameHeader is the bytes a binary frame spends before its payload:
	// the kind and the u32 payload length.
	frameHeader = 5
)

var magic = []byte{'D', 'C', 'R', 'E', 'C', 0}

// FileMeta is the header metadata of one recording file.
type FileMeta struct {
	Format  string `json:"format"` // always "dcrec"
	Version uint16 `json:"version"`
	Source  string `json:"source,omitempty"` // writing process ("dcserved", "dcload", ...)
}

// ErrTornTail reports a frame that could not be fully read or failed its
// checksum — the expected shape of a crash-truncated file. Decoders
// return it (wrapped) after yielding every valid prefix record.
var ErrTornTail = errors.New("recorder: torn or corrupt trailing frame")

// ValidMode reports whether mode names a known encoding ("" selects
// binary).
func ValidMode(mode string) bool {
	return mode == "" || mode == ModeBinary || mode == ModeNDJSON
}

// Encoder writes records in either mode. It is the single canonical
// stream serializer: the Writer, the /record download endpoints
// and the test helpers all encode through it. Not safe for concurrent
// use.
type Encoder struct {
	w    *bufio.Writer
	mode string
	buf  []byte // frame scratch, reused across Encode calls
}

// NewEncoder starts a recording on w in the given mode ("" = binary),
// writing the versioned header immediately.
func NewEncoder(w io.Writer, mode, source string) (*Encoder, error) {
	if mode == "" {
		mode = ModeBinary
	}
	if !ValidMode(mode) {
		return nil, fmt.Errorf("recorder: unknown mode %q (binary|ndjson)", mode)
	}
	e := &Encoder{w: bufio.NewWriterSize(w, 64*1024), mode: mode}
	meta := FileMeta{Format: "dcrec", Version: FormatVersion, Source: source}
	if mode == ModeNDJSON {
		line, err := json.Marshal(meta)
		if err != nil {
			return nil, err
		}
		if _, err := e.w.Write(append(line, '\n')); err != nil {
			return nil, err
		}
		return e, nil
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	if _, err := e.w.Write(magic); err != nil {
		return nil, err
	}
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:2], FormatVersion)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(len(metaJSON)))
	if _, err := e.w.Write(hdr[:]); err != nil {
		return nil, err
	}
	if _, err := e.w.Write(metaJSON); err != nil {
		return nil, err
	}
	return e, nil
}

// Mode returns the encoding this encoder writes.
func (e *Encoder) Mode() string { return e.mode }

// Encode appends one record. A binary frame is built whole in the
// encoder's scratch buffer and written with one Write.
func (e *Encoder) Encode(rec *Record) error {
	if e.mode == ModeNDJSON {
		// Marshal a copy: handing rec itself to json would move every
		// caller's record to the heap, binary mode included.
		r := *rec
		line, err := json.Marshal(&r)
		if err != nil {
			return err
		}
		if _, err := e.w.Write(line); err != nil {
			return err
		}
		return e.w.WriteByte('\n')
	}
	frame, err := appendFrame(e.buf[:0], rec)
	if err != nil {
		return err
	}
	e.buf = frame
	_, err = e.w.Write(frame)
	return err
}

// Flush pushes buffered bytes to the underlying writer.
func (e *Encoder) Flush() error { return e.w.Flush() }

// Buffered returns how many encoded bytes sit in the encoder's buffer,
// not yet pushed to the underlying writer. Rotation accounting needs
// logical size (written + buffered), not just what reached the file.
func (e *Encoder) Buffered() int { return e.w.Buffered() }

// appendFrame appends rec's binary frame to buf: kind, payload length,
// payload and checksum.
func appendFrame(buf []byte, rec *Record) ([]byte, error) {
	buf = append(buf, byte(rec.Kind), 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, rec.Stream)
	switch rec.Kind {
	case KindOpen:
		if rec.Info == nil {
			return nil, fmt.Errorf("recorder: open record without stream info")
		}
		infoJSON, err := json.Marshal(rec.Info)
		if err != nil {
			return nil, err
		}
		buf = append(buf, infoJSON...)
	case KindServe:
		if len(rec.TraceID) > maxTraceID {
			return nil, fmt.Errorf("recorder: trace id of %d bytes exceeds %d", len(rec.TraceID), maxTraceID)
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Time))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(rec.Server))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(rec.From))
		var flags byte
		if rec.Hit {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(rec.Drops))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Cost))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rec.Optimal))
		buf = append(buf, byte(len(rec.TraceID)))
		buf = append(buf, rec.TraceID...)
	default:
		return nil, fmt.Errorf("recorder: unknown record kind %d", rec.Kind)
	}
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(buf)-frameHeader))
	return binary.LittleEndian.AppendUint32(buf, frameCRC(buf)), nil
}

// frameCRC is a binary frame's checksum: CRC32-IEEE over its kind byte
// and its payload, skipping the length field between them. frame holds
// kind, length and payload in wire order.
func frameCRC(frame []byte) uint32 {
	crc := crc32.Update(0, crc32.IEEETable, frame[:1])
	return crc32.Update(crc, crc32.IEEETable, frame[frameHeader:])
}

// Decoder reads one recording stream in either mode, yielding records
// until io.EOF (clean end) or an ErrTornTail-wrapped error (truncated or
// corrupt tail; every record before it is valid).
type Decoder struct {
	br    *bufio.Reader
	mode  string
	meta  FileMeta
	line  int    // NDJSON line number, for diagnostics
	frame []byte // binary frame scratch, reused across Next calls
}

// NewDecoder sniffs the format (binary magic vs NDJSON header line) and
// parses the header. A stream too short to carry a full header is
// reported as torn.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{br: bufio.NewReaderSize(r, 64*1024)}
	head, err := d.br.Peek(len(magic))
	if err != nil && len(head) == 0 {
		return nil, fmt.Errorf("recorder: empty recording: %w", ErrTornTail)
	}
	if bytes.Equal(head, magic) {
		d.mode = ModeBinary
		if err := d.readBinaryHeader(); err != nil {
			return nil, err
		}
		return d, nil
	}
	d.mode = ModeNDJSON
	if err := d.readNDJSONHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// Mode returns the detected encoding.
func (d *Decoder) Mode() string { return d.mode }

// Meta returns the parsed file header.
func (d *Decoder) Meta() FileMeta { return d.meta }

func (d *Decoder) readBinaryHeader() error {
	if _, err := io.ReadFull(d.br, make([]byte, len(magic))); err != nil {
		return fmt.Errorf("recorder: short magic: %w", ErrTornTail)
	}
	var hdr [6]byte
	if _, err := io.ReadFull(d.br, hdr[:]); err != nil {
		return fmt.Errorf("recorder: short header: %w", ErrTornTail)
	}
	version := binary.LittleEndian.Uint16(hdr[0:2])
	if version != FormatVersion {
		return fmt.Errorf("recorder: unsupported format version %d (this build reads %d)", version, FormatVersion)
	}
	metaLen := binary.LittleEndian.Uint32(hdr[2:6])
	if metaLen > maxFramePayload {
		return fmt.Errorf("recorder: header meta length %d exceeds %d: %w", metaLen, maxFramePayload, ErrTornTail)
	}
	metaJSON := make([]byte, metaLen)
	if _, err := io.ReadFull(d.br, metaJSON); err != nil {
		return fmt.Errorf("recorder: short header meta: %w", ErrTornTail)
	}
	if err := json.Unmarshal(metaJSON, &d.meta); err != nil {
		return fmt.Errorf("recorder: bad header meta: %v: %w", err, ErrTornTail)
	}
	d.meta.Version = version
	return nil
}

func (d *Decoder) readNDJSONHeader() error {
	line, err := d.readLine()
	if err != nil {
		return fmt.Errorf("recorder: missing NDJSON header line: %w", ErrTornTail)
	}
	if err := json.Unmarshal(line, &d.meta); err != nil || d.meta.Format != "dcrec" {
		return fmt.Errorf("recorder: not a dcrec recording (bad header line): %w", ErrTornTail)
	}
	if d.meta.Version != FormatVersion {
		return fmt.Errorf("recorder: unsupported format version %d (this build reads %d)", d.meta.Version, FormatVersion)
	}
	return nil
}

// readLine returns the next complete (newline-terminated) line. A final
// unterminated fragment — the torn tail of a crashed NDJSON writer — is
// reported as an error, never as a line.
func (d *Decoder) readLine() ([]byte, error) {
	d.line++
	line, err := d.br.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) > 0 {
			return nil, fmt.Errorf("recorder: line %d is unterminated: %w", d.line, ErrTornTail)
		}
		return nil, err
	}
	return line, nil
}

// Next returns the next record. io.EOF marks a clean end of the
// recording; an error wrapping ErrTornTail marks a truncated or corrupt
// tail (the preceding records are all valid).
func (d *Decoder) Next() (*Record, error) {
	if d.mode == ModeNDJSON {
		return d.nextNDJSON()
	}
	return d.nextBinary()
}

func (d *Decoder) nextNDJSON() (*Record, error) {
	for {
		line, err := d.readLine()
		if err != nil {
			return nil, err
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("recorder: line %d: %v: %w", d.line, err, ErrTornTail)
		}
		if rec.Kind != KindOpen && rec.Kind != KindServe {
			return nil, fmt.Errorf("recorder: line %d: unknown record kind %d: %w", d.line, rec.Kind, ErrTornTail)
		}
		return &rec, nil
	}
}

func (d *Decoder) nextBinary() (*Record, error) {
	kindB, err := d.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF // clean frame boundary
		}
		return nil, fmt.Errorf("recorder: reading frame kind: %v: %w", err, ErrTornTail)
	}
	kind := Kind(kindB)
	if kind != KindOpen && kind != KindServe {
		return nil, fmt.Errorf("recorder: unknown frame kind %d: %w", kindB, ErrTornTail)
	}
	d.frame = append(d.frame[:0], kindB, 0, 0, 0, 0)
	if _, err := io.ReadFull(d.br, d.frame[1:frameHeader]); err != nil {
		return nil, fmt.Errorf("recorder: short frame length: %w", ErrTornTail)
	}
	payloadLen := binary.LittleEndian.Uint32(d.frame[1:frameHeader])
	if payloadLen > maxFramePayload {
		return nil, fmt.Errorf("recorder: frame length %d exceeds %d: %w", payloadLen, maxFramePayload, ErrTornTail)
	}
	d.frame = slices.Grow(d.frame, int(payloadLen))[:frameHeader+int(payloadLen)]
	if _, err := io.ReadFull(d.br, d.frame[frameHeader:]); err != nil {
		return nil, fmt.Errorf("recorder: short frame payload: %w", ErrTornTail)
	}
	var sumBuf [4]byte
	if _, err := io.ReadFull(d.br, sumBuf[:]); err != nil {
		return nil, fmt.Errorf("recorder: short frame checksum: %w", ErrTornTail)
	}
	if frameCRC(d.frame) != binary.LittleEndian.Uint32(sumBuf[:]) {
		return nil, fmt.Errorf("recorder: frame checksum mismatch: %w", ErrTornTail)
	}
	return unmarshalPayload(kind, d.frame[frameHeader:])
}

func unmarshalPayload(kind Kind, payload []byte) (*Record, error) {
	switch kind {
	case KindOpen:
		if len(payload) < 4 {
			return nil, fmt.Errorf("recorder: open frame of %d bytes: %w", len(payload), ErrTornTail)
		}
		var info StreamInfo
		if err := json.Unmarshal(payload[4:], &info); err != nil {
			return nil, fmt.Errorf("recorder: bad stream info: %v: %w", err, ErrTornTail)
		}
		return &Record{
			Kind:   KindOpen,
			Stream: binary.LittleEndian.Uint32(payload[0:4]),
			Info:   &info,
		}, nil
	case KindServe:
		const fixed = 4 + 8 + 2 + 2 + 1 + 2 + 8 + 8 + 1
		if len(payload) < fixed {
			return nil, fmt.Errorf("recorder: serve frame of %d bytes: %w", len(payload), ErrTornTail)
		}
		traceLen := int(payload[fixed-1])
		if len(payload) != fixed+traceLen {
			return nil, fmt.Errorf("recorder: serve frame trace length mismatch: %w", ErrTornTail)
		}
		return &Record{
			Kind:    KindServe,
			Stream:  binary.LittleEndian.Uint32(payload[0:4]),
			Time:    math.Float64frombits(binary.LittleEndian.Uint64(payload[4:12])),
			Server:  int(binary.LittleEndian.Uint16(payload[12:14])),
			From:    int(binary.LittleEndian.Uint16(payload[14:16])),
			Hit:     payload[16]&1 != 0,
			Drops:   int(binary.LittleEndian.Uint16(payload[17:19])),
			Cost:    math.Float64frombits(binary.LittleEndian.Uint64(payload[19:27])),
			Optimal: math.Float64frombits(binary.LittleEndian.Uint64(payload[27:35])),
			TraceID: string(payload[fixed : fixed+traceLen]),
		}, nil
	default:
		return nil, fmt.Errorf("recorder: unknown record kind %d: %w", kind, ErrTornTail)
	}
}
