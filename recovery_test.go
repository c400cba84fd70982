package verifai

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// copyTree copies a data directory, producing the crash image recovery
// runs on: the original system's goroutines and open files can't help a
// copy, exactly like a killed process's on-disk state.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), info.Mode())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, info.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

// durableOpts is ExactOptions plus an always-fsync WAL, so every
// acknowledged write is durable the moment AddX returns — the posture the
// kill tests rely on.
func durableOpts(seed uint64) OpenOptions {
	return OpenOptions{Options: ExactOptions(seed), Sync: "always"}
}

// TestDurableKillRecovery is the acceptance case: a durable system killed
// without a checkpoint recovers every acknowledged write — version,
// catalog, and retrievability — from the WAL alone.
func TestDurableKillRecovery(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(filepath.Join(dir, "data"), durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pipeline().Lake().AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTriple(Triple{Subject: "tommy bolt", Predicate: "champion of", Object: "1958 u.s. open", SourceID: "cases"}); err != nil {
		t.Fatal(err)
	}
	wantVersion := sys.LakeVersion()
	if wantVersion == 0 {
		t.Fatal("no versions committed")
	}

	// Kill: no Checkpoint, no Close — recover from a copy of the on-disk
	// state (sync=always means every acknowledged write is down there).
	crash := filepath.Join(dir, "crash")
	copyTree(t, filepath.Join(dir, "data"), crash)

	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != wantVersion {
		t.Fatalf("recovered LakeVersion = %d, want %d", v, wantVersion)
	}
	ds, ok := recovered.Durability()
	if !ok {
		t.Fatal("recovered system reports no durability")
	}
	if ds.ReplayedRecords == 0 {
		t.Error("recovery replayed no WAL records")
	}

	// The recovered indexes serve the paper's Figure 4 claim end to end.
	report, err := recovered.VerifyClaimCtx(context.Background(), "rec-golf", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Refuted {
		t.Errorf("recovered verdict = %v, want Refuted", report.Verdict)
	}

	// And keep accepting writes at the right version.
	if err := recovered.AddTable(workload.OhioDistrictsTable()); err != nil {
		t.Fatal(err)
	}
	if v := recovered.LakeVersion(); v != wantVersion+1 {
		t.Errorf("post-recovery version = %d, want %d", v, wantVersion+1)
	}
}

// TestDurableCheckpointRecovery checkpoints, keeps writing, kills, and
// recovers: the state comes from checkpoint + WAL tail, and the index
// snapshot is actually used (same retrieval results either way).
func TestDurableCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Pipeline().Lake().AddSource(Source{ID: "cases", Name: "paper cases", TrustPrior: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	ckptV, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if ckptV != sys.LakeVersion() {
		t.Fatalf("checkpoint version %d != lake version %d", ckptV, sys.LakeVersion())
	}
	// Post-checkpoint tail.
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	want := sys.LakeVersion()

	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != want {
		t.Fatalf("recovered version = %d, want %d", v, want)
	}
	ds, _ := recovered.Durability()
	if ds.CheckpointVersion != ckptV {
		t.Errorf("recovered checkpoint version = %d, want %d", ds.CheckpointVersion, ckptV)
	}
	if ds.ReplayedRecords != 1 {
		t.Errorf("replayed %d records, want 1 (just the post-checkpoint doc)", ds.ReplayedRecords)
	}
	report, err := recovered.VerifyClaimCtx(context.Background(), "rec-golf", workload.GolfClaim())
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Refuted {
		t.Errorf("recovered verdict = %v, want Refuted", report.Verdict)
	}
	// The post-checkpoint document (WAL tail) is retrievable too.
	got := recovered.Retrieve(NewClaimObject("q", workload.StompTheYardClaim()), 5, KindText)
	if len(got) == 0 {
		t.Error("post-checkpoint document not retrievable after recovery")
	}
}

// TestDurableTornTailRecovery truncates the WAL mid-record (a crash in the
// middle of an append) and checks recovery drops exactly the torn,
// unacknowledged record and keeps everything before it.
func TestDurableTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		if err := sys.AddDocument(&Document{ID: fmt.Sprintf("doc%02d", i), Title: "t", Text: fmt.Sprintf("body %d", i)}); err != nil {
			t.Fatal(err)
		}
	}

	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	segs, err := filepath.Glob(filepath.Join(crash, "wal", "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments: %v (%d)", err, len(segs))
	}
	seg := segs[len(segs)-1]
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-9); err != nil {
		t.Fatal(err)
	}

	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != n-1 {
		t.Fatalf("recovered version = %d, want %d (torn final record dropped)", v, n-1)
	}
	if _, ok := recovered.Pipeline().Lake().Document(fmt.Sprintf("doc%02d", n-1)); ok {
		t.Error("torn record's document resurfaced")
	}
	if _, ok := recovered.Pipeline().Lake().Document(fmt.Sprintf("doc%02d", n-2)); !ok {
		t.Error("intact record lost")
	}
	ds, _ := recovered.Durability()
	if ds.WALTornBytes == 0 {
		t.Error("WALTornBytes = 0, want > 0")
	}
}

// TestCheckpointDuringIngestRecovery overlaps System.Checkpoint with a
// concurrent ingest burst — the two-phase protocol's whole point — then
// kills and recovers. Whatever the interleaving, recovery must see every
// acknowledged write: the checkpoint (pinned at its fork version, index
// snapshot included) plus the WAL tail replayed through the indexer.
func TestCheckpointDuringIngestRecovery(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}

	const burst = 30
	ingested := make(chan error, 1)
	go func() {
		for i := 0; i < burst; i++ {
			if err := sys.AddDocument(&Document{
				ID:   fmt.Sprintf("burst%03d", i),
				Text: fmt.Sprintf("burst document %d ingested while a checkpoint writes", i),
			}); err != nil {
				ingested <- err
				return
			}
		}
		ingested <- nil
	}()
	ckptV, err := sys.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-ingested; err != nil {
		t.Fatalf("ingest during checkpoint: %v", err)
	}
	want := sys.LakeVersion()
	if want != burst+1 {
		t.Fatalf("final version = %d, want %d", want, burst+1)
	}
	if ckptV > want {
		t.Fatalf("checkpoint version %d beyond lake version %d", ckptV, want)
	}

	// Kill and recover from a crash image.
	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	recovered, err := Open(crash, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	if v := recovered.LakeVersion(); v != want {
		t.Fatalf("recovered version = %d, want %d", v, want)
	}
	ds, _ := recovered.Durability()
	if ds.CheckpointVersion != ckptV {
		t.Errorf("recovered checkpoint version = %d, want %d", ds.CheckpointVersion, ckptV)
	}
	if got := uint64(ds.ReplayedRecords); got != want-ckptV {
		t.Errorf("replayed %d records, want %d (the post-fork tail)", got, want-ckptV)
	}
	// Every burst document — whether it landed in the checkpoint or the
	// tail — is present and retrievable through the recovered indexes.
	for i := 0; i < burst; i++ {
		id := fmt.Sprintf("burst%03d", i)
		if _, ok := recovered.Pipeline().Lake().Document(id); !ok {
			t.Fatalf("recovered lake lost %s", id)
		}
	}
	got := recovered.Retrieve(NewClaimObject("q", workload.GolfClaim()), 5, KindTable)
	if len(got) == 0 {
		t.Error("recovered table index returned nothing")
	}
}

// TestOpenLockedDataDir checks the cross-process lock at the public API:
// a second Open of a live data dir fails fast with ErrDataDirLocked.
func TestOpenLockedDataDir(t *testing.T) {
	data := filepath.Join(t.TempDir(), "data")
	sys, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(data, durableOpts(1)); !errors.Is(err, ErrDataDirLocked) {
		t.Fatalf("second Open error = %v, want ErrDataDirLocked", err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := Open(data, durableOpts(1))
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	defer sys2.Close()
}

// TestOpenValidation covers the error surfaces of the durable API.
func TestOpenValidation(t *testing.T) {
	if _, err := Open(t.TempDir(), OpenOptions{Options: ExactOptions(1), Sync: "bogus"}); err == nil {
		t.Error("bogus sync policy accepted")
	}
	lake := NewLake()
	defer lake.Close()
	sys, err := NewSystem(lake, ExactOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err == nil {
		t.Error("Checkpoint on an in-memory system succeeded")
	}
	if _, ok := sys.Durability(); ok {
		t.Error("in-memory system reports durability")
	}
}

// TestBinarySnapshotRecoverySmoke is the recovery smoke CI's race job runs:
// checkpoint a quantized durable system, confirm the checkpointed index
// shards on disk are binfmt containers (magic "VAIB"), then recover from a
// copied tree and check the snapshot alone — zero WAL replay — reproduces
// the live system's retrieval.
func TestBinarySnapshotRecoverySmoke(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data")
	opts := durableOpts(1)
	opts.Indexer.Quantize = true
	opts.Indexer.RerankMultiple = 8
	sys, err := Open(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AddTable(workload.USOpen1954Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTable(workload.USOpen1959Table()); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddDocument(workload.MeaganGoodDoc()); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	q := NewClaimObject("q", workload.GolfClaim())
	want := sys.Retrieve(q, 5, KindTable)
	if len(want) == 0 {
		t.Fatal("no live retrieval hits")
	}

	shards, err := filepath.Glob(filepath.Join(data, "checkpoint", "indexes", "*.idx"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no checkpointed index shards: %v (%d)", err, len(shards))
	}
	for _, p := range shards {
		head, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(head) < 4 || string(head[:4]) != "VAIB" {
			t.Errorf("%s: not a binfmt container (head %q)", filepath.Base(p), head[:min(4, len(head))])
		}
	}

	crash := filepath.Join(dir, "crash")
	copyTree(t, data, crash)
	recovered, err := Open(crash, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	ds, _ := recovered.Durability()
	if ds.ReplayedRecords != 0 {
		t.Errorf("replayed %d WAL records, want 0 (checkpoint covers everything)", ds.ReplayedRecords)
	}
	got := recovered.Retrieve(q, 5, KindTable)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered retrieval = %v, want %v", got, want)
	}
}
