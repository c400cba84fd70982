package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// binTag opens every record payload and is the only payload tag: a
// CRC-valid frame whose payload starts with any other byte — '{' (0x7B),
// a JSON record, included — is corruption, reported loudly and never
// mistaken for a torn write.
const binTag = 0x01

// Format names a WAL record payload encoding. It is deprecated and
// ignored: FormatBinary is its only value and nothing reads it. The type
// remains only because System.ChangeFeed returns one and
// server.ChangeFeedConfig carries one.
type Format int

// FormatBinary is the compact binary record encoding, the only one.
const FormatBinary Format = 0

// Binary payload layout (all integers little-endian, uvarint = unsigned
// LEB128 as encoded by encoding/binary):
//
//	[0]     0x01 format tag
//	[1]     kind code (binKind*)
//	uvarint Version
//	uvarint TS (Unix nanoseconds, cast through uint64)
//	...     kind-specific fields
//
// Strings use a tagged uvarint header. A string that is a canonical
// base-10 uint64 rendering ("3", "1500", "1954" — the bulk of table
// cells) is stored as uvarint(value<<1 | 1): two bytes for a typical
// four-digit cell instead of five. Any other string is uvarint(len<<1)
// followed by the raw UTF-8 bytes. Canonical means strconv would format
// the value back to the identical string, so "007", "+3", and "" keep
// their bytes.
//
// A table's row list is headed by uvarint(nrows<<1 | uniform). The
// uniform bit (set only when the table has columns and every row has
// exactly one cell per column — the common shape) drops the per-row cell
// counts; ragged tables keep them.
//
// binKindNamed carries kinds the codec has no structural layout for (e.g.
// the CDC heartbeat, or kinds added later): the kind string itself follows
// and there is no payload struct. A record whose Kind names a structural
// code but whose payload pointer is nil also encodes as binKindNamed, so
// encode is total over every Record the system constructs.
const (
	binKindNamed byte = iota
	binKindTable
	binKindDocument
	binKindTriple
	binKindSource
)

// canonicalUint reports whether s is the canonical decimal rendering of a
// uint64 below 10^18 (18 digits keeps value<<1 far from overflow). Only
// such strings may use the numeric header — anything else ("007", "+3",
// "1e5") must round-trip byte-exact through the raw form.
func canonicalUint(s string) (uint64, bool) {
	if len(s) == 0 || len(s) > 18 || (len(s) > 1 && s[0] == '0') {
		return 0, false
	}
	var n uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// appendBinString appends one tagged-header string (see the layout
// comment above).
func appendBinString(dst []byte, s string) []byte {
	if n, ok := canonicalUint(s); ok {
		return binary.AppendUvarint(dst, n<<1|1)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s))<<1)
	return append(dst, s...)
}

// encodeRecordBinary appends rec's binary payload to dst.
func encodeRecordBinary(dst []byte, rec Record) []byte {
	code := binKindNamed
	switch {
	case rec.Kind == KindTable && rec.Table != nil:
		code = binKindTable
	case rec.Kind == KindDocument && rec.Doc != nil:
		code = binKindDocument
	case rec.Kind == KindTriple && rec.Triple != nil:
		code = binKindTriple
	case rec.Kind == KindSource && rec.Source != nil:
		code = binKindSource
	}
	dst = append(dst, binTag, code)
	dst = binary.AppendUvarint(dst, rec.Version)
	dst = binary.AppendUvarint(dst, uint64(rec.TS))
	switch code {
	case binKindTable:
		t := rec.Table
		dst = appendBinString(dst, t.ID)
		dst = appendBinString(dst, t.Caption)
		dst = appendBinString(dst, t.SourceID)
		dst = binary.AppendUvarint(dst, uint64(len(t.Columns)))
		for _, c := range t.Columns {
			dst = appendBinString(dst, c)
		}
		uniform := len(t.Columns) > 0
		for _, row := range t.Rows {
			if len(row) != len(t.Columns) {
				uniform = false
				break
			}
		}
		head := uint64(len(t.Rows)) << 1
		if uniform {
			head |= 1
		}
		dst = binary.AppendUvarint(dst, head)
		for _, row := range t.Rows {
			if !uniform {
				dst = binary.AppendUvarint(dst, uint64(len(row)))
			}
			for _, cell := range row {
				dst = appendBinString(dst, cell)
			}
		}
	case binKindDocument:
		d := rec.Doc
		dst = appendBinString(dst, d.ID)
		dst = appendBinString(dst, d.Title)
		dst = appendBinString(dst, d.Text)
		dst = appendBinString(dst, d.EntityID)
		dst = appendBinString(dst, d.SourceID)
	case binKindTriple:
		tr := rec.Triple
		dst = appendBinString(dst, tr.Subject)
		dst = appendBinString(dst, tr.Predicate)
		dst = appendBinString(dst, tr.Object)
		dst = appendBinString(dst, tr.SourceID)
	case binKindSource:
		s := rec.Source
		dst = appendBinString(dst, s.ID)
		dst = appendBinString(dst, s.Name)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.TrustPrior))
	default:
		dst = appendBinString(dst, rec.Kind)
	}
	return dst
}

// binReader is a bounds-checked cursor over a binary payload. Every read
// validates against the remaining bytes before allocating, so a corrupt
// length can never trigger an allocation bomb (the frame CRC has already
// passed by the time the payload decoder runs — these checks defend
// against CRC-valid garbage, e.g. from a buggy writer or a fuzzer).
type binReader struct {
	data []byte
	off  int
}

func (r *binReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated or overlong uvarint at payload offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// count reads a uvarint element count, rejecting counts that cannot fit in
// the remaining payload (every element costs at least one byte).
func (r *binReader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.data)-r.off) {
		return 0, fmt.Errorf("element count %d exceeds %d remaining payload bytes", v, len(r.data)-r.off)
	}
	return int(v), nil
}

func (r *binReader) string() (string, error) {
	h, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if h&1 == 1 {
		return strconv.FormatUint(h>>1, 10), nil
	}
	if h>>1 > uint64(len(r.data)-r.off) {
		return "", fmt.Errorf("string length %d exceeds %d remaining payload bytes", h>>1, len(r.data)-r.off)
	}
	n := int(h >> 1)
	s := string(r.data[r.off : r.off+n])
	r.off += n
	return s, nil
}

func (r *binReader) float64() (float64, error) {
	if len(r.data)-r.off < 8 {
		return 0, fmt.Errorf("truncated float64 at payload offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return v, nil
}

// decodeRecordBinary decodes one record payload.
func decodeRecordBinary(payload []byte) (Record, error) {
	if len(payload) > 0 && payload[0] != binTag {
		return Record{}, fmt.Errorf("unknown payload format tag 0x%02x", payload[0])
	}
	if len(payload) < 2 {
		return Record{}, fmt.Errorf("binary payload of %d bytes has no kind code", len(payload))
	}
	code := payload[1]
	r := &binReader{data: payload, off: 2}
	var rec Record
	var err error
	if rec.Version, err = r.uvarint(); err != nil {
		return Record{}, err
	}
	ts, err := r.uvarint()
	if err != nil {
		return Record{}, err
	}
	rec.TS = int64(ts)
	switch code {
	case binKindTable:
		t := &table.Table{}
		if t.ID, err = r.string(); err != nil {
			return Record{}, err
		}
		if t.Caption, err = r.string(); err != nil {
			return Record{}, err
		}
		if t.SourceID, err = r.string(); err != nil {
			return Record{}, err
		}
		ncols, err := r.count()
		if err != nil {
			return Record{}, err
		}
		if ncols > 0 {
			t.Columns = make([]string, ncols)
			for i := range t.Columns {
				if t.Columns[i], err = r.string(); err != nil {
					return Record{}, err
				}
			}
		}
		head, err := r.uvarint()
		if err != nil {
			return Record{}, err
		}
		uniform := head&1 == 1
		if uniform && ncols == 0 {
			return Record{}, fmt.Errorf("uniform table rows with zero columns")
		}
		if head>>1 > uint64(len(r.data)-r.off) {
			return Record{}, fmt.Errorf("row count %d exceeds %d remaining payload bytes", head>>1, len(r.data)-r.off)
		}
		nrows := int(head >> 1)
		if nrows > 0 {
			t.Rows = make([][]string, nrows)
			for i := range t.Rows {
				ncells := ncols
				if !uniform {
					if ncells, err = r.count(); err != nil {
						return Record{}, err
					}
				}
				if ncells > 0 {
					t.Rows[i] = make([]string, ncells)
					for j := range t.Rows[i] {
						if t.Rows[i][j], err = r.string(); err != nil {
							return Record{}, err
						}
					}
				}
			}
		}
		rec.Kind, rec.Table = KindTable, t
	case binKindDocument:
		d := &doc.Document{}
		for _, field := range []*string{&d.ID, &d.Title, &d.Text, &d.EntityID, &d.SourceID} {
			if *field, err = r.string(); err != nil {
				return Record{}, err
			}
		}
		rec.Kind, rec.Doc = KindDocument, d
	case binKindTriple:
		tr := &kg.Triple{}
		for _, field := range []*string{&tr.Subject, &tr.Predicate, &tr.Object, &tr.SourceID} {
			if *field, err = r.string(); err != nil {
				return Record{}, err
			}
		}
		rec.Kind, rec.Triple = KindTriple, tr
	case binKindSource:
		s := &datalake.Source{}
		if s.ID, err = r.string(); err != nil {
			return Record{}, err
		}
		if s.Name, err = r.string(); err != nil {
			return Record{}, err
		}
		if s.TrustPrior, err = r.float64(); err != nil {
			return Record{}, err
		}
		rec.Kind, rec.Source = KindSource, s
	case binKindNamed:
		if rec.Kind, err = r.string(); err != nil {
			return Record{}, err
		}
	default:
		return Record{}, fmt.Errorf("unknown binary kind code %d", code)
	}
	if r.off != len(payload) {
		return Record{}, fmt.Errorf("%d trailing bytes after binary record", len(payload)-r.off)
	}
	return rec, nil
}
