package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/datalake"
	"repro/internal/invindex"
	"repro/internal/vecindex"
)

// Index snapshots let a restarted process skip re-tokenizing and
// re-embedding the whole lake: a checkpoint saves every shard of every
// (kind, family) index, and recovery loads them back — valid only for the
// exact lake version and indexer configuration they were built under, both
// pinned in meta.json. A snapshot that does not match is simply not used
// (the caller falls back to a bulk re-index), never partially applied.

// snapshotFormat versions the snapshot layout itself.
const snapshotFormat = 1

// snapshotMeta pins what a snapshot is valid for.
type snapshotMeta struct {
	Format      int    `json:"format"`
	LakeVersion uint64 `json:"lake_version"`
	// Config is the canonical JSON of the producing IndexerConfig's
	// layout-relevant fields; loading compares it byte-for-byte.
	Config json.RawMessage `json:"config"`
}

// snapshotConfig is the layout-relevant subset of IndexerConfig. Runtime
// tuning knobs (worker counts) are deliberately excluded: an operator
// changing them must not invalidate snapshots.
type snapshotConfig struct {
	Seed         uint64          `json:"seed"`
	EmbedDim     int             `json:"embed_dim"`
	EnableBM25   bool            `json:"enable_bm25"`
	EnableVector bool            `json:"enable_vector"`
	Vector       VectorIndexKind `json:"vector"`
	IVFLists     int             `json:"ivf_lists,omitempty"`
	IVFProbes    int             `json:"ivf_probes,omitempty"`
	LSHBits      int             `json:"lsh_bits,omitempty"`
	LSHTables    int             `json:"lsh_tables,omitempty"`
	Quantize     bool            `json:"quantize,omitempty"`
	Kinds        []datalake.Kind `json:"kinds"`
	ChunkTokens  int             `json:"chunk_tokens"`
	Shards       int             `json:"shards"`
}

// canonicalConfig serializes cfg's layout-relevant fields.
func canonicalConfig(cfg IndexerConfig) ([]byte, error) {
	sc := snapshotConfig{
		Seed: cfg.Seed, EmbedDim: cfg.EmbedDim,
		EnableBM25: cfg.EnableBM25, EnableVector: cfg.EnableVector, Vector: cfg.Vector,
		Kinds: cfg.Kinds, ChunkTokens: cfg.ChunkTokens, Shards: cfg.Shards,
	}
	// Only the selected family's parameters pin the layout. RerankMultiple
	// is deliberately excluded: it tunes the quantized scan at query time
	// without changing what is stored.
	if cfg.EnableVector {
		switch cfg.Vector {
		case VectorFlat:
			sc.Quantize = cfg.Quantize
		case VectorIVF:
			sc.IVFLists, sc.IVFProbes = cfg.IVFLists, cfg.IVFProbes
		case VectorLSH:
			sc.LSHBits, sc.LSHTables = cfg.LSHBits, cfg.LSHTables
		}
	}
	return json.Marshal(sc)
}

func shardFile(dir, family string, kind datalake.Kind, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%s-%03d.idx", family, kind, shard))
}

// FrozenIndexes is an immutable capture of every index shard across every
// (kind, family) pair, pinned by Indexer.Freeze during a checkpoint's
// quiesced fork phase. Save then serializes it to disk with no lake or
// index locks held, so ingestion proceeds for the whole write phase — the
// capture stays frozen at the fork's lake version no matter how far the
// live indexes move on.
type FrozenIndexes struct {
	cfg  IndexerConfig
	bm25 map[datalake.Kind][]*invindex.Frozen
	vec  map[datalake.Kind][]vecindex.Frozen
}

// Freeze captures every shard of every index family. Call it only while
// the lake is quiesced (e.g. inside datalake.Fork), or concurrent ingest
// will tear the shard captures against each other; the capture itself is
// cheap — compacted in-memory copies, no serialization, no I/O.
func (ix *Indexer) Freeze() *FrozenIndexes {
	fz := &FrozenIndexes{
		cfg:  ix.cfg,
		bm25: make(map[datalake.Kind][]*invindex.Frozen, len(ix.bm25)),
		vec:  make(map[datalake.Kind][]vecindex.Frozen, len(ix.vec)),
	}
	for kind, shards := range ix.bm25 {
		frozen := make([]*invindex.Frozen, len(shards))
		for si, sh := range shards {
			frozen[si] = sh.Freeze()
		}
		fz.bm25[kind] = frozen
	}
	for kind, shards := range ix.vec {
		frozen := make([]vecindex.Frozen, len(shards))
		for si, sh := range shards {
			frozen[si] = sh.Freeze()
		}
		fz.vec[kind] = frozen
	}
	return fz
}

// Save writes the frozen shards plus the pinning metadata to dir (created
// if needed). lakeVersion must be the lake version the capture was frozen
// at. Safe to call with ingestion running: the capture is immutable.
func (fz *FrozenIndexes) Save(dir string, lakeVersion uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: snapshot mkdir: %w", err)
	}
	save := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("core: create snapshot file: %w", err)
		}
		err = fn(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("core: write %s: %w", filepath.Base(path), err)
		}
		return nil
	}
	for kind, shards := range fz.bm25 {
		for si, sh := range shards {
			if err := save(shardFile(dir, familyBM25, kind, si), func(f *os.File) error { return sh.Save(f) }); err != nil {
				return err
			}
		}
	}
	for kind, shards := range fz.vec {
		for si, sh := range shards {
			if err := save(shardFile(dir, familyVector, kind, si), func(f *os.File) error { return sh.Save(f) }); err != nil {
				return err
			}
		}
	}
	cc, err := canonicalConfig(fz.cfg)
	if err != nil {
		return fmt.Errorf("core: snapshot config: %w", err)
	}
	meta, err := json.MarshalIndent(snapshotMeta{Format: snapshotFormat, LakeVersion: lakeVersion, Config: cc}, "", "  ")
	if err != nil {
		return fmt.Errorf("core: snapshot meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), meta, 0o644); err != nil {
		return fmt.Errorf("core: write snapshot meta: %w", err)
	}
	return nil
}

// SaveSnapshot writes every index shard plus the pinning metadata to dir
// (created if needed): Freeze + FrozenIndexes.Save in one call. Call it
// only while the lake is quiesced at lakeVersion (e.g. inside
// datalake.Quiesce); checkpoints that must not block ingestion freeze
// under the quiescence and Save afterwards instead.
func (ix *Indexer) SaveSnapshot(dir string, lakeVersion uint64) error {
	return ix.Freeze().Save(dir, lakeVersion)
}

// ErrSnapshotMismatch reports a snapshot that is missing or was built for
// a different lake version or indexer configuration — not corruption, just
// "rebuild instead".
var ErrSnapshotMismatch = fmt.Errorf("core: index snapshot missing or stale")

// BuildIndexerFromSnapshot is BuildIndexer loading the index contents from
// a SaveSnapshot directory instead of re-indexing the lake. The snapshot
// must match cfg and the lake's current version exactly (both checked with
// the lake quiesced); on any mismatch it returns ErrSnapshotMismatch
// (wrap-checked with errors.Is) and the caller falls back to BuildIndexer.
func BuildIndexerFromSnapshot(lake *datalake.Lake, cfg IndexerConfig, dir string) (*Indexer, error) {
	ix, err := newIndexer(lake, &cfg)
	if err != nil {
		return nil, err
	}
	meta, err := checkSnapshotMeta(ix.cfg, dir)
	if err != nil {
		return nil, err
	}

	ix.startAppliers()
	unsubscribe, err := lake.Subscribe(func() error {
		// Version check inside the quiesced init: nothing can commit
		// between the check, the load, and the subscription.
		if v := lake.Version(); v != meta.LakeVersion {
			return fmt.Errorf("%w (snapshot at lake version %d, lake at %d)", ErrSnapshotMismatch, meta.LakeVersion, v)
		}
		var err error
		ix.bm25, ix.vec, err = openSnapshotShards(ix.cfg, dir)
		return err
	}, datalake.Subscriber{Prepare: ix.prepareHook, Apply: ix.apply})
	if err != nil {
		ix.stopAppliers()
		return nil, err
	}
	ix.unsubscribe = unsubscribe
	return ix, nil
}

// openSnapshotShards opens every shard of a FrozenIndexes.Save directory
// written under cfg. Shards are opened by path so they can be
// memory-mapped and served lazily: startup pays one verification pass per
// shard, and vector/posting pages fault in as queries touch them. A
// missing shard file is an ErrSnapshotMismatch (rebuild instead); a shard
// that exists but fails to open is surfaced loudly, naming the file —
// that is corruption, not staleness.
func openSnapshotShards(cfg IndexerConfig, dir string) (map[datalake.Kind][]*invindex.Index, map[datalake.Kind][]vectorIndex, error) {
	bm25 := make(map[datalake.Kind][]*invindex.Index)
	vec := make(map[datalake.Kind][]vectorIndex)
	for _, kind := range cfg.Kinds {
		for si := 0; si < cfg.Shards; si++ {
			if cfg.EnableBM25 {
				path := shardFile(dir, familyBM25, kind, si)
				sh, err := invindex.OpenFile(path)
				if err != nil {
					return nil, nil, shardOpenError(path, err)
				}
				bm25[kind] = append(bm25[kind], sh)
			}
			if cfg.EnableVector {
				path := shardFile(dir, familyVector, kind, si)
				sh, err := loadVectorShard(cfg, nil, path)
				if err != nil {
					return nil, nil, shardOpenError(path, err)
				}
				vec[kind] = append(vec[kind], sh)
			}
		}
	}
	return bm25, vec, nil
}

// shardOpenError distinguishes "snapshot incomplete" (a missing shard
// file: ErrSnapshotMismatch, rebuild instead) from "shard present but
// unreadable" (corruption, reported with the shard's file name).
func shardOpenError(path string, err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w (missing shard file %s)", ErrSnapshotMismatch, filepath.Base(path))
	}
	return fmt.Errorf("core: open snapshot shard %s: %w", filepath.Base(path), err)
}

// checkSnapshotMeta reads and validates a snapshot directory's meta.json
// against cfg (which must already be normalized — newIndexer writes the
// normalized config back). It returns the meta so callers can check the
// pinned lake version; any format or config-fingerprint drift is an
// ErrSnapshotMismatch.
func checkSnapshotMeta(cfg IndexerConfig, dir string) (snapshotMeta, error) {
	var meta snapshotMeta
	metaBytes, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return meta, fmt.Errorf("%w (no meta.json: %v)", ErrSnapshotMismatch, err)
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return meta, fmt.Errorf("%w (unreadable meta.json: %v)", ErrSnapshotMismatch, err)
	}
	cc, err := canonicalConfig(cfg)
	if err != nil {
		return meta, err
	}
	// MarshalIndent re-indented the embedded raw config; compact it back
	// before the byte comparison.
	var stored bytes.Buffer
	if err := json.Compact(&stored, meta.Config); err != nil {
		return meta, fmt.Errorf("%w (unreadable config fingerprint: %v)", ErrSnapshotMismatch, err)
	}
	if meta.Format != snapshotFormat || stored.String() != string(cc) {
		return meta, fmt.Errorf("%w (configuration changed)", ErrSnapshotMismatch)
	}
	return meta, nil
}

// loadVectorShard opens one serialized vector shard, dispatching on the
// configured family: from data when it is non-nil (a frozen capture thawed
// in memory), otherwise from the snapshot file at path, memory-mapped.
func loadVectorShard(cfg IndexerConfig, data []byte, path string) (vectorIndex, error) {
	switch {
	case cfg.Vector == VectorFlat && cfg.Quantize:
		sq, err := loadOrOpen(data, path, vecindex.LoadSQ, vecindex.OpenSQFile)
		if err != nil {
			return nil, err
		}
		if cfg.RerankMultiple > 0 {
			sq.SetRerank(cfg.RerankMultiple)
		}
		return sq, nil
	case cfg.Vector == VectorFlat:
		return loadOrOpen(data, path, vecindex.LoadFlat, vecindex.OpenFlatFile)
	case cfg.Vector == VectorIVF:
		return loadOrOpen(data, path, vecindex.LoadIVF, vecindex.OpenIVFFile)
	case cfg.Vector == VectorLSH:
		return loadOrOpen(data, path, vecindex.LoadLSH, vecindex.OpenLSHFile)
	default:
		return nil, fmt.Errorf("core: unknown vector index kind %d", int(cfg.Vector))
	}
}

func loadOrOpen[T any](data []byte, path string, load func([]byte) (T, error), open func(string) (T, error)) (T, error) {
	if data != nil {
		return load(data)
	}
	return open(path)
}
