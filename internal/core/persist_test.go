package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/table"
)

// buildPersistLake returns a lake with a few instances of every modality.
func buildPersistLake(t *testing.T) *datalake.Lake {
	t.Helper()
	lake := datalake.New()
	t.Cleanup(func() { lake.Close() })
	if err := lake.AddSource(datalake.Source{ID: "s", Name: "test"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		tbl := table.New(fmt.Sprintf("t%d", i), fmt.Sprintf("league season %d results", i), []string{"player", "score"})
		tbl.MustAppendRow(fmt.Sprintf("alice %d", i), fmt.Sprintf("%d", 10+i))
		tbl.MustAppendRow(fmt.Sprintf("bob %d", i), fmt.Sprintf("%d", 20+i))
		tbl.SourceID = "s"
		if err := lake.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
		d := &doc.Document{ID: fmt.Sprintf("d%d", i), Title: fmt.Sprintf("season %d report", i),
			Text: fmt.Sprintf("the season %d championship was decided by a narrow margin", i), SourceID: "s"}
		if err := lake.AddDocument(d); err != nil {
			t.Fatal(err)
		}
		if err := lake.AddTriple(kg.Triple{Subject: fmt.Sprintf("player%d", i), Predicate: "plays_in", Object: "league", SourceID: "s"}); err != nil {
			t.Fatal(err)
		}
	}
	return lake
}

// TestIndexerSnapshotRoundTrip saves a snapshot and rebuilds an indexer
// from it, asserting retrieval is identical across every vector family.
func TestIndexerSnapshotRoundTrip(t *testing.T) {
	for _, vk := range []VectorIndexKind{VectorFlat, VectorIVF, VectorLSH} {
		t.Run(fmt.Sprintf("vector=%d", int(vk)), func(t *testing.T) {
			lake := buildPersistLake(t)
			cfg := DefaultIndexerConfig(7)
			cfg.Vector = vk
			cfg.IVFLists = 4
			cfg.IVFProbes = 2
			cfg.Shards = 2
			ix, err := BuildIndexer(lake, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer ix.Close()

			dir := t.TempDir()
			var v uint64
			if err := lake.Quiesce(func(version uint64) error {
				v = version
				return ix.SaveSnapshot(dir, version)
			}); err != nil {
				t.Fatal(err)
			}
			if v == 0 {
				t.Fatal("quiesced version is 0")
			}

			loaded, err := BuildIndexerFromSnapshot(lake, cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.Close()

			for _, query := range []string{"season 2 championship", "alice score", "player1 league"} {
				_, a := ix.Retrieve(query, 10)
				_, b := loaded.Retrieve(query, 10)
				if len(a) != len(b) {
					t.Fatalf("query %q: candidate counts differ (%d vs %d)\n%v\n%v", query, len(a), len(b), a, b)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Errorf("query %q candidate %d drifted: %s vs %s", query, i, a[i], b[i])
					}
				}
			}

			// The snapshot-built indexer is live: new ingests are indexed.
			d := &doc.Document{ID: "fresh", Title: "fresh doc", Text: "completely fresh zanzibar content", SourceID: "s"}
			if err := lake.AddDocument(d); err != nil {
				t.Fatal(err)
			}
			_, got := loaded.Retrieve("zanzibar", 5, datalake.KindText)
			if len(got) == 0 || got[0] != "text:fresh" {
				t.Fatalf("snapshot-built indexer did not index live ingest: %v", got)
			}
		})
	}
}

// TestSnapshotMismatch checks stale or misconfigured snapshots are
// refused with ErrSnapshotMismatch instead of silently half-loading.
func TestSnapshotMismatch(t *testing.T) {
	lake := buildPersistLake(t)
	cfg := DefaultIndexerConfig(7)
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	dir := t.TempDir()
	if err := lake.Quiesce(func(v uint64) error { return ix.SaveSnapshot(dir, v) }); err != nil {
		t.Fatal(err)
	}

	// Different layout-relevant configuration.
	other := cfg
	other.Shards = 3
	if _, err := BuildIndexerFromSnapshot(lake, other, dir); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("config mismatch error = %v, want ErrSnapshotMismatch", err)
	}

	// Lake moved past the snapshot.
	if err := lake.AddDocument(&doc.Document{ID: "extra", Text: "x", SourceID: "s"}); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndexerFromSnapshot(lake, cfg, dir); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("stale snapshot error = %v, want ErrSnapshotMismatch", err)
	}

	// Missing directory.
	if _, err := BuildIndexerFromSnapshot(lake, cfg, t.TempDir()); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("missing snapshot error = %v, want ErrSnapshotMismatch", err)
	}

	// Runtime tuning knobs must NOT invalidate the snapshot — rebuild the
	// lake state the snapshot was taken at to prove it.
	lake2 := buildPersistLake(t)
	ix2, err := BuildIndexer(lake2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix2.Close()
	dir2 := t.TempDir()
	if err := lake2.Quiesce(func(v uint64) error { return ix2.SaveSnapshot(dir2, v) }); err != nil {
		t.Fatal(err)
	}
	tuned := cfg
	tuned.RetrieveWorkers = 2
	loaded, err := BuildIndexerFromSnapshot(lake2, tuned, dir2)
	if err != nil {
		t.Fatalf("tuning-only change refused the snapshot: %v", err)
	}
	loaded.Close()

	// A missing shard file means an incomplete snapshot, not corruption.
	vecShards, err := filepath.Glob(filepath.Join(dir2, "vector-*.idx"))
	if err != nil || len(vecShards) == 0 {
		t.Fatalf("no vector shard files: %v", err)
	}
	if err := os.Remove(vecShards[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndexerFromSnapshot(lake2, cfg, dir2); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("missing shard error = %v, want ErrSnapshotMismatch", err)
	}
}

// TestQuantizedSnapshotRoundTrip exercises the int8-quantized flat family
// end to end: build, snapshot, recover, retrieve identically, stay live.
func TestQuantizedSnapshotRoundTrip(t *testing.T) {
	lake := buildPersistLake(t)
	cfg := DefaultIndexerConfig(7)
	cfg.Quantize = true
	cfg.RerankMultiple = 8
	cfg.Shards = 2
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	dir := t.TempDir()
	if err := lake.Quiesce(func(v uint64) error { return ix.SaveSnapshot(dir, v) }); err != nil {
		t.Fatal(err)
	}
	loaded, err := BuildIndexerFromSnapshot(lake, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	for _, query := range []string{"season 2 championship", "alice score"} {
		_, a := ix.Retrieve(query, 10)
		_, b := loaded.Retrieve(query, 10)
		if len(a) != len(b) {
			t.Fatalf("query %q: candidate counts differ (%d vs %d)", query, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("query %q candidate %d drifted: %s vs %s", query, i, a[i], b[i])
			}
		}
	}
	// Still live after recovery.
	if err := lake.AddDocument(&doc.Document{ID: "fresh", Text: "completely fresh zanzibar content", SourceID: "s"}); err != nil {
		t.Fatal(err)
	}
	_, got := loaded.Retrieve("zanzibar", 5, datalake.KindText)
	if len(got) == 0 || got[0] != "text:fresh" {
		t.Fatalf("quantized snapshot indexer did not index live ingest: %v", got)
	}

	// Toggling quantization changes the stored layout: the fingerprint must
	// refuse the snapshot rather than misread it.
	plain := cfg
	plain.Quantize = false
	if _, err := BuildIndexerFromSnapshot(lake, plain, dir); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("quantize toggle error = %v, want ErrSnapshotMismatch", err)
	}
}

func TestQuantizeRequiresFlat(t *testing.T) {
	lake := buildPersistLake(t)
	cfg := DefaultIndexerConfig(7)
	cfg.Quantize = true
	cfg.Vector = VectorIVF
	if _, err := BuildIndexer(lake, cfg); err == nil {
		t.Fatal("Quantize with VectorIVF accepted")
	}
}

// TestCorruptShardFailsLoudly distinguishes corruption from staleness: a
// present-but-mangled shard — a flipped byte, or a file that is not a
// binfmt container at all — must surface an error that names the shard and
// is NOT ErrSnapshotMismatch, so operators never silently rebuild over bad
// disks.
func TestCorruptShardFailsLoudly(t *testing.T) {
	lake := buildPersistLake(t)
	cfg := DefaultIndexerConfig(7)
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(struct{ IDs []string }{[]string{"t1"}}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		glob   string
		mangle func([]byte) []byte
	}{
		{"mid-file byte flip", "bm25-*.idx", func(b []byte) []byte {
			b[len(b)/2] ^= 0xff
			return b
		}},
		{"no magic: gob stream", "vector-*.idx", func([]byte) []byte { return gobStream.Bytes() }},
		{"no magic: arbitrary bytes", "bm25-*.idx", func(b []byte) []byte {
			return bytes.Repeat([]byte{0x5a}, len(b))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := lake.Quiesce(func(v uint64) error { return ix.SaveSnapshot(dir, v) }); err != nil {
				t.Fatal(err)
			}
			matches, err := filepath.Glob(filepath.Join(dir, tc.glob))
			if err != nil || len(matches) == 0 {
				t.Fatalf("no %s shard files: %v", tc.glob, err)
			}
			data, err := os.ReadFile(matches[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(matches[0], tc.mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = BuildIndexerFromSnapshot(lake, cfg, dir)
			if err == nil {
				t.Fatal("corrupt shard loaded without error")
			}
			if errors.Is(err, ErrSnapshotMismatch) {
				t.Fatalf("corruption reported as staleness: %v", err)
			}
			if name := filepath.Base(matches[0]); !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not name shard %s", err, name)
			}
		})
	}
}
