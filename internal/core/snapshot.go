package core

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/datalake"
	"repro/internal/invindex"
	"repro/internal/kg"
	"repro/internal/provenance"
)

// Time-travel reads. A checkpoint's fork already pins everything a
// reproducible verdict needs — an immutable catalog View plus a frozen
// capture of every index shard at one version. This file generalizes that
// pair into a retained, queryable snapshot: the pipeline registers the
// (View, FrozenIndexes, trust copy) triple with a datalake.SnapshotRegistry,
// and Pipeline.Verify at a non-zero asOf runs the full retrieve→rerank→
// verify flow against it, so a verdict computed at version v recomputes
// identically long after the lake (and the operator's trust overrides)
// have moved on.

// PinnedSnapshot is the payload the pipeline hangs on a datalake.Snapshot:
// the frozen index shards, the trust overrides in force at pin time, and —
// lazily, on first pinned read — searchable shard structures thawed from
// the frozen capture (or opened from disk for a pin recovered at restart)
// plus a knowledge graph rebuilt from the view's triples.
type PinnedSnapshot struct {
	cfg   IndexerConfig
	view  *datalake.View
	trust map[string]float64 // pipeline trust overrides at pin time

	frozen *FrozenIndexes // in-memory capture (pin path); nil when disk-backed
	dir    string         // persisted shard directory (recovery path)

	once   sync.Once
	matErr error
	bm25   map[datalake.Kind][]*invindex.Index
	vec    map[datalake.Kind][]vectorIndex
	graph  *kg.Graph
	priors map[string]float64 // view source trust priors
}

// LoadPinnedSnapshot builds the payload for a pin recovered from disk:
// dir holds a FrozenIndexes.Save layout whose meta must match cfg and the
// view's version exactly (a config change makes the persisted shards
// unusable — the caller drops the pin rather than serving wrong results).
// Shards open lazily on first pinned read.
func LoadPinnedSnapshot(cfg IndexerConfig, view *datalake.View, dir string, trust map[string]float64) (*PinnedSnapshot, error) {
	norm := cfg
	if norm.EmbedDim <= 0 {
		norm.EmbedDim = 64
	}
	if norm.Shards <= 0 {
		norm.Shards = 1
	}
	meta, err := checkSnapshotMeta(norm, dir)
	if err != nil {
		return nil, err
	}
	if meta.LakeVersion != view.Version() {
		return nil, fmt.Errorf("%w (pinned shards at lake version %d, view at %d)", ErrSnapshotMismatch, meta.LakeVersion, view.Version())
	}
	if trust == nil {
		trust = make(map[string]float64)
	}
	return &PinnedSnapshot{cfg: norm, view: view, trust: trust, dir: dir}, nil
}

// Trust returns the trust overrides captured at pin time (shared map;
// callers must not mutate) — the durable layer persists it alongside the
// shards so a recovered pin re-verifies identically.
func (ps *PinnedSnapshot) Trust() map[string]float64 { return ps.trust }

// materialize thaws the snapshot into searchable form exactly once: BM25
// and vector shards round-trip through their serialized encodings (memory
// buffers for a live capture, files for a recovered one) and the view's
// triple list is rebuilt into a graph for entity resolution. The frozen
// capture is released afterwards so a retained snapshot does not hold
// both representations.
func (ps *PinnedSnapshot) materialize() error {
	ps.once.Do(func() { ps.matErr = ps.doMaterialize() })
	return ps.matErr
}

func (ps *PinnedSnapshot) doMaterialize() error {
	ps.graph = kg.NewGraph()
	for _, t := range ps.view.Triples() {
		ps.graph.Add(t)
	}
	ps.priors = make(map[string]float64, len(ps.view.Sources()))
	for _, s := range ps.view.Sources() {
		ps.priors[s.ID] = s.TrustPrior
	}
	if ps.frozen == nil {
		var err error
		ps.bm25, ps.vec, err = openSnapshotShards(ps.cfg, ps.dir)
		return err
	}
	ps.bm25 = make(map[datalake.Kind][]*invindex.Index)
	ps.vec = make(map[datalake.Kind][]vectorIndex)
	for kind, shards := range ps.frozen.bm25 {
		out := make([]*invindex.Index, len(shards))
		for si, sh := range shards {
			var buf bytes.Buffer
			if err := sh.Save(&buf); err != nil {
				return fmt.Errorf("core: thaw bm25 shard %s/%d: %w", kind, si, err)
			}
			loaded, err := invindex.Load(buf.Bytes())
			if err != nil {
				return fmt.Errorf("core: thaw bm25 shard %s/%d: %w", kind, si, err)
			}
			out[si] = loaded
		}
		ps.bm25[kind] = out
	}
	for kind, shards := range ps.frozen.vec {
		out := make([]vectorIndex, len(shards))
		for si, sh := range shards {
			var buf bytes.Buffer
			if err := sh.Save(&buf); err != nil {
				return fmt.Errorf("core: thaw vector shard %s/%d: %w", kind, si, err)
			}
			loaded, err := loadVectorShard(ps.cfg, buf.Bytes(), "")
			if err != nil {
				return fmt.Errorf("core: thaw vector shard %s/%d: %w", kind, si, err)
			}
			out[si] = loaded
		}
		ps.vec[kind] = out
	}
	ps.frozen = nil
	return nil
}

// sourceTrust is the pinned counterpart of Pipeline.SourceTrust: the trust
// overrides captured at pin time, then the view's source priors, then 0.5.
// Later SetSourceTrust calls cannot reach a pinned verdict — that is the
// reproducibility contract.
func (ps *PinnedSnapshot) sourceTrust(sourceID string) float64 {
	if t, ok := ps.trust[sourceID]; ok {
		return t
	}
	if prior, ok := ps.priors[sourceID]; ok {
		return prior
	}
	return 0.5
}

// source adapts the snapshot into the pipeline's evidence-source seam:
// retrieval fans out over the thawed shards through the indexer's shared
// worker pool, resolution reads the immutable view, trust reads the
// pinned copy. materialize must have succeeded first.
func (ps *PinnedSnapshot) source(ix *Indexer) evidenceSource {
	return evidenceSource{
		retrieve: func(ctx context.Context, query string, k int, kinds []datalake.Kind) []provenance.RetrievalHit {
			return ix.searchShards(ctx, query, k, kinds, true, ps.cfg.EnableVector, ps.bm25, ps.vec)
		},
		resolve: func(id string) (datalake.Instance, error) { return ps.view.Resolve(id, ps.graph) },
		trust:   ps.sourceTrust,
	}
}

// Snapshots returns the pipeline's snapshot registry (never nil).
func (p *Pipeline) Snapshots() *datalake.SnapshotRegistry { return p.snapshots }

// trustSnapshot copies the live trust overrides for a pin.
func (p *Pipeline) trustSnapshot() map[string]float64 {
	p.trustMu.RLock()
	defer p.trustMu.RUnlock()
	out := make(map[string]float64, len(p.trust))
	for k, v := range p.trust {
		out[k] = v
	}
	return out
}

// TakeSnapshot quiesces the lake just long enough to fork a View and
// freeze every index shard at the current version, then registers the
// pair as a retained snapshot (explicitly pinned when pinned is true —
// excluded from retention GC until unpinned). Registering an
// already-retained version promotes it instead of re-freezing.
func (p *Pipeline) TakeSnapshot(pinned bool) (*datalake.Snapshot, error) {
	if s, err := p.snapshots.Acquire(p.lake.Version()); err == nil {
		// Already retained at head: promote, don't re-freeze.
		if s.Version() == p.lake.Version() {
			defer s.Release()
			if pinned {
				if err := p.snapshots.Pin(s.Version()); err != nil {
					return nil, err
				}
			}
			return s, nil
		}
		s.Release()
	}
	var fz *FrozenIndexes
	view, err := p.lake.Fork(func(*datalake.View) error {
		fz = p.indexer.Freeze()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p.RegisterSnapshot(view, fz, pinned), nil
}

// PinSnapshot forks and freezes at the current version and retains the
// pair as an explicitly pinned snapshot, excluded from retention GC until
// unpinned. persist, when non-nil, is called after the in-memory pin is
// registered, with everything durability needs: the forked view, a
// writeIndexes that serializes the frozen shards into a directory (under
// dir/indexes, the checkpoint layout), and the pin-time trust overrides. A
// persist failure demotes the pin back to the retention window and is
// returned — an operator asking for a durable pin must not silently get a
// memory-only one.
func (p *Pipeline) PinSnapshot(persist func(view *datalake.View, writeIndexes func(dir string) error, trust map[string]float64) error) (*datalake.Snapshot, error) {
	var fz *FrozenIndexes
	view, err := p.lake.Fork(func(*datalake.View) error {
		fz = p.indexer.Freeze()
		return nil
	})
	if err != nil {
		return nil, err
	}
	trust := p.trustSnapshot()
	ps := &PinnedSnapshot{cfg: p.indexer.cfg, view: view, trust: trust, frozen: fz}
	snap := p.snapshots.Add(view, ps, true)
	if persist != nil {
		writeIndexes := func(dir string) error {
			return fz.Save(filepath.Join(dir, "indexes"), view.Version())
		}
		if err := persist(view, writeIndexes, trust); err != nil {
			_ = p.snapshots.Unpin(view.Version())
			return nil, err
		}
	}
	return snap, nil
}

// RegisterSnapshot retains an already-forked View + frozen capture — the
// checkpoint path: durable checkpoints fork once, and the freeze callback
// hands the same pair here, so every checkpoint doubles as a time-travel
// snapshot at zero extra quiescence.
func (p *Pipeline) RegisterSnapshot(view *datalake.View, fz *FrozenIndexes, pinned bool) *datalake.Snapshot {
	ps := &PinnedSnapshot{cfg: p.indexer.cfg, view: view, trust: p.trustSnapshot(), frozen: fz}
	return p.snapshots.Add(view, ps, pinned)
}

// RegisterRecoveredSnapshot re-retains a persisted pin at restart: view
// was reloaded from the pin's serialized catalog, dir holds its index
// shards, trust its pin-time overrides. The shards must match the current
// indexer configuration (ErrSnapshotMismatch otherwise — the caller drops
// the pin loudly rather than serving wrong pinned verdicts).
func (p *Pipeline) RegisterRecoveredSnapshot(view *datalake.View, dir string, trust map[string]float64) (*datalake.Snapshot, error) {
	ps, err := LoadPinnedSnapshot(p.indexer.cfg, view, dir, trust)
	if err != nil {
		return nil, err
	}
	return p.snapshots.Add(view, ps, true), nil
}
