package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// Record kinds. Event records (table, document, triple) carry the lake
// version their mutation committed as; source records carry the lake
// version current when the source was registered (sources are not
// versioned mutations, the stamp only places them for segment truncation).
const (
	KindTable    = "table"
	KindDocument = "document"
	KindTriple   = "triple"
	KindSource   = "source"
)

// Record is one durable lake mutation. Exactly one of Table, Doc, Triple,
// or Source is populated according to Kind. On disk and on the change
// feed a record is always the compact binary encoding (codec.go); the
// JSON tags are its presentation form only — `verifai waldump` and the
// SSE change feed marshal records as JSON for `jq`.
type Record struct {
	Version uint64           `json:"v"`
	Kind    string           `json:"kind"`
	Table   *table.Table     `json:"table,omitempty"`
	Doc     *doc.Document    `json:"doc,omitempty"`
	Triple  *kg.Triple       `json:"triple,omitempty"`
	Source  *datalake.Source `json:"source,omitempty"`
	// TS is the leader's wall-clock append time in Unix nanoseconds,
	// stamped when the record enters the log. Optional (0 in records
	// written before the field existed); followers use it to report apply
	// lag in seconds alongside lag in versions. Clock skew between leader
	// and follower shifts the measurement — it is an operational lag
	// signal, not an ordering primitive (Version is).
	TS int64 `json:"ts,omitempty"`
}

// FromEvent converts a committed lake event into its WAL record.
func FromEvent(ev datalake.Event) (Record, error) {
	switch ev.Kind {
	case datalake.KindTable:
		return Record{Version: ev.Version, Kind: KindTable, Table: ev.Table}, nil
	case datalake.KindText:
		return Record{Version: ev.Version, Kind: KindDocument, Doc: ev.Doc}, nil
	case datalake.KindEntity:
		return Record{Version: ev.Version, Kind: KindTriple, Triple: ev.Triple}, nil
	default:
		return Record{}, fmt.Errorf("wal: unloggable event kind %v", ev.Kind)
	}
}

// Frame layout: 4-byte little-endian payload length, 4-byte little-endian
// CRC-32C (Castagnoli) of the payload, then the payload (one compact binary
// record, first byte 0x01; see codec.go). The CRC covers the whole payload
// including the tag and detects bit rot and mid-log corruption; a torn
// (partially written) final frame is detected by the length outrunning the
// remaining bytes. FrameHeaderSize is exported for stream consumers (the
// CDC change feed frames its wire protocol with the same codec).
const FrameHeaderSize = 8

// MaxRecordSize bounds one record's payload. A frame header is written
// atomically ahead of its payload, so a length beyond this bound can only
// come from corruption, never from a torn append — replay (and the CDC
// stream decoder) fails loudly on it instead of attempting a giant
// allocation.
const MaxRecordSize = 1 << 30

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EncodeFrame appends rec to buf as one frame (length + CRC + binary
// payload). It is the single encode path shared by the log itself and the
// CDC change stream, so every consumer speaks exactly the on-disk format.
func EncodeFrame(buf *bytes.Buffer, rec Record) error {
	payload := encodeRecordBinary(nil, rec)
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record payload %d bytes exceeds %d", len(payload), MaxRecordSize)
	}
	var header [FrameHeaderSize]byte
	binary.LittleEndian.PutUint32(header[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:8], crc32.Checksum(payload, crcTable))
	buf.Write(header[:])
	buf.Write(payload)
	return nil
}

// DecodeFrame decodes the frame starting at data[off]. It returns the
// record and the offset just past the frame. torn reports an incomplete
// frame (the tail of a partial append, or more stream bytes needed); err
// reports corruption (bad length, CRC mismatch, undecodable payload — a
// payload that is not a binary record, JSON included).
func DecodeFrame(data []byte, off int) (rec Record, next int, torn bool, err error) {
	if len(data)-off < FrameHeaderSize {
		return Record{}, off, true, nil
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	if n > MaxRecordSize {
		return Record{}, off, false, fmt.Errorf("wal: frame at offset %d declares %d payload bytes (corrupt length)", off, n)
	}
	if len(data)-off-FrameHeaderSize < n {
		return Record{}, off, true, nil
	}
	payload := data[off+FrameHeaderSize : off+FrameHeaderSize+n]
	if got := crc32.Checksum(payload, crcTable); got != sum {
		return Record{}, off, false, fmt.Errorf("wal: frame at offset %d fails CRC (stored %08x, computed %08x)", off, sum, got)
	}
	if rec, err = decodeRecordBinary(payload); err != nil {
		return Record{}, off, false, fmt.Errorf("wal: frame at offset %d: %w", off, err)
	}
	return rec, off + FrameHeaderSize + n, false, nil
}

// scanFrames decodes every frame in data in order, passing each record to
// fn. tornAt is the offset of a trailing incomplete frame, or len(data)
// when every frame is complete; what a torn tail means is the caller's
// policy. A corrupt frame fails with an error naming path's segment; fn's
// error aborts the scan and is returned as is.
func scanFrames(path string, data []byte, fn func(Record) error) (tornAt int, err error) {
	off := 0
	for off < len(data) {
		rec, next, torn, err := DecodeFrame(data, off)
		if err != nil {
			return off, fmt.Errorf("wal: segment %s: %w", filepath.Base(path), err)
		}
		if torn {
			return off, nil
		}
		if err := fn(rec); err != nil {
			return off, err
		}
		off = next
	}
	return off, nil
}
