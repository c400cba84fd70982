package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// buildFrame wraps an arbitrary payload in a valid frame header (correct
// length and CRC), so tests and fuzzers can reach the payload decoder
// without dying at the CRC check.
func buildFrame(payload []byte) []byte {
	frame := make([]byte, FrameHeaderSize, FrameHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	return append(frame, payload...)
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeFileT(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// codecCases covers every record kind the system constructs, including the
// heartbeat shape (a Kind with no payload struct, encoded via the named
// fallback) and awkward payloads: empty strings, unicode, ragged rows,
// negative trust deltas, a zero TS.
func codecCases() []Record {
	return []Record{
		{Version: 1, Kind: KindDocument, TS: 1712345678901234567,
			Doc: &doc.Document{ID: "d1", Title: "títle ünicode", Text: "body text\nwith newline", EntityID: "e9", SourceID: "s1"}},
		{Version: 2, Kind: KindTable, TS: 2,
			Table: &table.Table{ID: "t1", Caption: "1954 u.s. open", SourceID: "s1",
				Columns: []string{"player", "place", "cash prize"},
				Rows:    [][]string{{"tommy bolt", "3", "1500"}, {"sam snead"}, nil}}},
		{Version: 3, Kind: KindTriple,
			Triple: &kg.Triple{Subject: "meagan good", Predicate: "starred in", Object: "", SourceID: "s2"}},
		{Version: 4, Kind: KindSource,
			Source: &datalake.Source{ID: "s1", Name: "golf almanac", TrustPrior: 0.85}},
		{Version: 5, Kind: "heartbeat"},
		{Version: 6, Kind: KindTable}, // structural kind, nil payload: named fallback
		{Kind: KindDocument, Doc: &doc.Document{}},
	}
}

func TestBinaryRecordRoundTrip(t *testing.T) {
	for i, rec := range codecCases() {
		payload := encodeRecordBinary(nil, rec)
		if payload[0] != binTag {
			t.Fatalf("case %d: payload tag = 0x%02x, want 0x%02x", i, payload[0], binTag)
		}
		got, err := decodeRecordBinary(payload)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("case %d: round trip mismatch\n got: %+v\nwant: %+v", i, got, rec)
		}
	}
}

// TestFrameRoundTripBothFormats drives the full frame path (header + CRC +
// payload) over every codec case. The name dates from when JSON frames were
// also written; binary is now the only payload encoding, and a JSON frame is
// corruption (TestDecodeFrameUnknownTag).
func TestFrameRoundTripBothFormats(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		var buf bytes.Buffer
		recs := codecCases()
		for _, rec := range recs {
			if err := EncodeFrame(&buf, rec); err != nil {
				t.Fatal(err)
			}
		}
		data, off := buf.Bytes(), 0
		for i, want := range recs {
			rec, next, torn, err := DecodeFrame(data, off)
			if err != nil || torn {
				t.Fatalf("record %d: torn=%v err=%v", i, torn, err)
			}
			if !reflect.DeepEqual(rec, want) {
				t.Errorf("record %d mismatch\n got: %+v\nwant: %+v", i, rec, want)
			}
			off = next
		}
		if off != len(data) {
			t.Fatalf("decoded through %d of %d bytes", off, len(data))
		}
	})
}

// TestBinaryEncodingSmaller pins the tentpole's size claim at the codec
// level: the binary payload must be at least 30% smaller than JSON for a
// representative record mix (the benchmark gate asserts the same bound on
// whole frames, CI-measured).
func TestBinaryEncodingSmaller(t *testing.T) {
	var jsonBytes, binBytes int
	for _, rec := range codecCases() {
		j, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		jsonBytes += len(j)
		binBytes += len(encodeRecordBinary(nil, rec))
	}
	if float64(binBytes) > 0.7*float64(jsonBytes) {
		t.Errorf("binary payloads are %d bytes vs %d JSON (ratio %.2f, want <= 0.70)",
			binBytes, jsonBytes, float64(binBytes)/float64(jsonBytes))
	}
}

func TestBinaryDecodeCorruptionClassified(t *testing.T) {
	valid := encodeRecordBinary(nil, codecCases()[0])
	cases := []struct {
		name    string
		payload []byte
		substr  string
	}{
		{"empty payload", []byte{}, "no kind code"},
		{"tag only", []byte{binTag}, "no kind code"},
		{"unknown kind code", []byte{binTag, 0xEE, 1, 0}, "unknown binary kind code"},
		{"truncated mid-string", valid[:len(valid)-3], ""},
		{"trailing garbage", append(append([]byte{}, valid...), 0xAB), "trailing bytes"},
		{"overlong string length", append(append([]byte{}, valid[:4]...), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := decodeRecordBinary(c.payload)
			if err == nil {
				t.Fatal("corrupt payload decoded without error")
			}
			if c.substr != "" && !strings.Contains(err.Error(), c.substr) {
				t.Errorf("error %q does not mention %q", err, c.substr)
			}
		})
	}
}

// jsonPayload is a record in the JSON encoding earlier logs could be
// written in: CRC-valid behind a frame, but not a binary record.
const jsonPayload = `{"v":1,"kind":"document"}`

// TestDecodeFrameUnknownTag: a CRC-valid frame whose payload does not start
// with 0x01 — a JSON record included — is corruption (loud), never torn
// (quiet), for the frame decoder and for every reader of a log.
func TestDecodeFrameUnknownTag(t *testing.T) {
	for _, c := range []struct {
		payload []byte
		tag     string
	}{
		{[]byte{0x42, 0x00, 0x00}, "0x42"},
		{[]byte(jsonPayload), "0x7b"},
	} {
		_, _, torn, err := DecodeFrame(buildFrame(c.payload), 0)
		if torn {
			t.Fatalf("payload %q classified as torn", c.payload)
		}
		if err == nil || !strings.Contains(err.Error(), "unknown payload format tag "+c.tag) {
			t.Fatalf("payload %q: err = %v, want unknown-format-tag corruption", c.payload, err)
		}
	}
	// Empty payload: same classification (loud).
	_, _, torn, err := DecodeFrame(buildFrame(nil), 0)
	if torn || err == nil {
		t.Fatalf("empty payload: torn=%v err=%v, want loud error", torn, err)
	}

	// A JSON record in the log fails every reader loudly — a TailReader,
	// Replay, DumpSegment and Open — and Open leaves it in place rather
	// than truncating it as a torn tail.
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone})
	defer l.Close()
	rec := docRecord(1, "d1")
	rec.Doc.Text = strings.Repeat("x", 64)
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	// Overwrite the committed frame with a JSON frame of the same length,
	// so the log's bookkeeping still covers every byte of it.
	path := lastSegment(t, dir)
	size := len(readFileT(t, path))
	frame := buildFrame([]byte(jsonPayload + strings.Repeat(" ", size-FrameHeaderSize-len(jsonPayload))))
	writeFileT(t, path, frame)

	wantCorrupt := func(reader string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "unknown payload format tag 0x7b") {
			t.Errorf("%s: err = %v, want unknown-format-tag corruption", reader, err)
		}
	}
	_, _, err = l.Tail(0).Next()
	wantCorrupt("TailReader", err)
	wantCorrupt("Replay", l.Replay(func(Record) error { return nil }))
	_, err = DumpSegment(path, func(Record) error { return nil })
	wantCorrupt("DumpSegment", err)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{Sync: SyncNone}, nil)
	wantCorrupt("Open", err)
	if got := readFileT(t, path); !bytes.Equal(got, frame) {
		t.Fatalf("Open rewrote the segment: %d bytes, want the %d-byte JSON frame kept", len(got), len(frame))
	}
}

// TestDumpSegment: the waldump primitive streams a log written across
// reopens as records (JSON-marshalable) in append order, reports a torn
// tail without truncating the file, and fails loudly on mid-segment
// corruption.
func TestDumpSegment(t *testing.T) {
	dir := t.TempDir()
	l, _ := openReplay(t, dir, Options{Sync: SyncNone})
	if err := l.Append(docRecord(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, _ = openReplay(t, dir, Options{Sync: SyncNone})
	if err := l.Append(docRecord(2, "b"), docRecord(3, "c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := SegmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no segment files listed")
	}
	var dumped []Record
	for _, p := range paths {
		torn, err := DumpSegment(p, func(r Record) error {
			if _, err := json.Marshal(r); err != nil {
				return err
			}
			dumped = append(dumped, r)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if torn != 0 {
			t.Fatalf("intact segment %s reports %d torn bytes", p, torn)
		}
	}
	if len(dumped) != 3 {
		t.Fatalf("dumped %d records, want 3", len(dumped))
	}
	for i, r := range dumped {
		if r.Version != uint64(i+1) {
			t.Fatalf("dump order lost: record %d has version %d", i, r.Version)
		}
	}

	// Torn tail: chop the last segment; dump must report it and leave the
	// file untouched.
	last := paths[len(paths)-1]
	data := readFileT(t, last)
	writeFileT(t, last, data[:len(data)-5])
	count := 0
	torn, err := DumpSegment(last, func(Record) error { count++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if torn == 0 {
		t.Fatal("torn tail not reported")
	}
	if after := readFileT(t, last); len(after) != len(data)-5 {
		t.Fatalf("DumpSegment modified the file: %d bytes, want %d", len(after), len(data)-5)
	}

	// Mid-segment corruption: loud error.
	bad := append([]byte{}, data...)
	bad[FrameHeaderSize+1] ^= 0xFF
	writeFileT(t, last, bad)
	if _, err := DumpSegment(last, func(Record) error { return nil }); err == nil {
		t.Fatal("mid-segment corruption dumped without error")
	}
}
