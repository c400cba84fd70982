// Package core assembles VerifAI's pipeline — Indexer, Combiner, Reranker,
// and Verifier Agent (Figures 2 and 3 of the paper) — into an end-to-end
// verification service over a live multi-modal data lake, with provenance
// recording and trust-weighted verdict resolution.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/embed"
	"repro/internal/invindex"
	"repro/internal/obs"
	"repro/internal/provenance"
	"repro/internal/table"
	"repro/internal/vecindex"
)

// VectorIndexKind selects the semantic index implementation.
type VectorIndexKind int

const (
	// VectorFlat is exact brute-force search (Faiss IndexFlat).
	VectorFlat VectorIndexKind = iota
	// VectorIVF is inverted-file search over k-means cells (Faiss IVF-Flat).
	VectorIVF
	// VectorLSH is random-hyperplane hashing (Faiss IndexLSH).
	VectorLSH
)

// vectorIndex is the write+search+persist interface all vecindex types
// satisfy. Freeze captures the index cheaply under its read lock for the
// checkpoint fork phase; Save is Freeze+serialize in one call.
type vectorIndex interface {
	vecindex.Searcher
	Add(id string, v embed.Vector) error
	Remove(id string) bool
	Save(w io.Writer) error
	Freeze() vecindex.Frozen
}

// IndexerConfig controls index construction.
type IndexerConfig struct {
	// Seed drives the embedding space and IVF/LSH randomness.
	Seed uint64
	// EmbedDim is the embedding dimension (default 64).
	EmbedDim int
	// EnableBM25 turns on the content-based index (default on via
	// DefaultIndexerConfig).
	EnableBM25 bool
	// EnableVector turns on the semantic index.
	EnableVector bool
	// Vector selects the semantic index implementation.
	Vector VectorIndexKind
	// IVFLists / IVFProbes parameterize VectorIVF.
	IVFLists  int
	IVFProbes int
	// LSHBits / LSHTables parameterize VectorLSH.
	LSHBits   int
	LSHTables int
	// Quantize stores VectorFlat shards as int8 scalar-quantized codes
	// scanned approximately and re-ranked exactly (vecindex.SQFlat) —
	// a memory-bandwidth optimization for large flat shards. Only valid
	// with VectorFlat.
	Quantize bool
	// RerankMultiple is the quantized scan's candidate multiple: the
	// approximate pass keeps RerankMultiple×k candidates for exact
	// re-ranking. <= 0 means vecindex.DefaultRerank. A runtime accuracy
	// knob: it does not change the snapshot layout.
	RerankMultiple int
	// Kinds lists the instance granularities to index. Tables are indexed
	// whole AND per-tuple when both kinds are present, matching the paper's
	// lake of tuples, tables, and text.
	Kinds []datalake.Kind
	// ChunkTokens bounds text chunks for the semantic index (the paper's
	// "chunked text files"); <= 0 indexes whole documents.
	ChunkTokens int
	// Shards is the number of hash shards per (kind, index family) pair.
	// Instance IDs hash to a shard; retrieval fans out across shards in
	// parallel and merges shard results by score, so shards bound
	// per-worker search cost and keep searches on other shards unblocked
	// while one shard takes an ingest write lock. (Ingest itself is
	// serialized by the lake's write lock for event ordering, so shards
	// raise read concurrency, not write throughput.) <= 0 means 1 (the
	// unsharded seed layout). Note that BM25 collection statistics (IDF,
	// average document length) are shard-local, as in a distributed
	// Elasticsearch deployment.
	Shards int
	// RetrieveWorkers bounds the worker pool that fans retrieval out across
	// shards × kinds × index families; <= 0 means GOMAXPROCS.
	RetrieveWorkers int
}

// DefaultIndexerConfig indexes every modality with both index families.
// Shards defaults to 1 so single-shard results are bit-identical to the
// original unsharded layout; services expecting ingest-heavy or very large
// lakes should raise it.
func DefaultIndexerConfig(seed uint64) IndexerConfig {
	return IndexerConfig{
		Seed:         seed,
		EmbedDim:     128,
		EnableBM25:   true,
		EnableVector: true,
		Vector:       VectorFlat,
		IVFLists:     64,
		IVFProbes:    8,
		LSHBits:      16,
		LSHTables:    8,
		Kinds: []datalake.Kind{
			datalake.KindTable, datalake.KindTuple, datalake.KindText, datalake.KindEntity,
		},
		ChunkTokens: 0,
		Shards:      1,
	}
}

// Indexer is VerifAI's Indexer module: task-agnostic content-based (BM25)
// and semantic-based (vector) indexes over lake instances, partitioned by
// modality so retrieval can target the data types a task needs, and sharded
// by instance-ID hash so searches fan out in parallel and concurrent ingest
// spreads lock contention.
//
// The indexer is live: BuildIndexer subscribes it to the lake's change feed,
// so instances ingested after construction become retrievable immediately,
// with no rebuild. All methods are safe for concurrent use.
type Indexer struct {
	lake *datalake.Lake
	emb  *embed.Embedder
	cfg  IndexerConfig

	bm25 map[datalake.Kind][]*invindex.Index
	vec  map[datalake.Kind][]vectorIndex

	workers     int
	unsubscribe func()

	// appliers are the per-shard applier goroutines' task queues; shard
	// ordinal s (across every kind and index family) is applied only by
	// appliers[s], fed in lake-version order by the lake's dispatcher.
	appliers  []chan applyTask
	applierWG sync.WaitGroup
	closeOnce sync.Once

	// m holds the per-family shard-search latency handles; the zero value
	// records nothing. Deliberately NOT part of IndexerConfig: the config
	// participates in snapshot fingerprinting, metrics must not.
	m indexerMetrics
}

// indexerMetrics pre-resolves the per-family children of the shard-search
// histogram vec so the search fan-out's hot closures never render labels.
type indexerMetrics struct {
	searchBM25   *obs.Histogram
	searchVector *obs.Histogram
}

// SetMetrics registers the indexer's retrieval metrics with reg. Call it
// once at assembly, before traffic.
func (ix *Indexer) SetMetrics(reg *obs.Registry) {
	vec := reg.HistogramVec("verifai_shard_search_seconds",
		"Latency of one shard search, labeled by index family.", "family")
	ix.m.searchBM25 = vec.With(familyBM25)
	ix.m.searchVector = vec.With(familyVector)
}

// newIndexer normalizes cfg and builds the indexer's empty structures —
// the construction shared by BuildIndexer (which then bulk-indexes the
// lake) and BuildIndexerFromSnapshot (which loads persisted shards). The
// normalized config is written back through cfg so both paths fingerprint
// identically.
func newIndexer(lake *datalake.Lake, cfg *IndexerConfig) (*Indexer, error) {
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = 64
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if !cfg.EnableBM25 && !cfg.EnableVector {
		return nil, fmt.Errorf("core: indexer needs at least one index family enabled")
	}
	if cfg.Quantize && cfg.Vector != VectorFlat {
		return nil, fmt.Errorf("core: Quantize requires VectorFlat (got kind %d)", int(cfg.Vector))
	}
	workers := cfg.RetrieveWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ix := &Indexer{
		lake:    lake,
		emb:     embed.NewEmbedder(cfg.EmbedDim, cfg.Seed),
		cfg:     *cfg,
		bm25:    make(map[datalake.Kind][]*invindex.Index),
		vec:     make(map[datalake.Kind][]vectorIndex),
		workers: workers,
	}
	for _, kind := range cfg.Kinds {
		if cfg.EnableBM25 {
			shards := make([]*invindex.Index, cfg.Shards)
			for i := range shards {
				shards[i] = invindex.New()
			}
			ix.bm25[kind] = shards
		}
		if cfg.EnableVector {
			shards := make([]vectorIndex, cfg.Shards)
			for i := range shards {
				v, err := ix.newVectorIndex()
				if err != nil {
					return nil, err
				}
				shards[i] = v
			}
			ix.vec[kind] = shards
		}
	}
	return ix, nil
}

// BuildIndexer indexes the lake's current instances per cfg and subscribes
// to the lake's change feed for incremental maintenance: tables, documents,
// and triples added to the lake afterwards are indexed as they arrive.
func BuildIndexer(lake *datalake.Lake, cfg IndexerConfig) (*Indexer, error) {
	ix, err := newIndexer(lake, &cfg)
	if err != nil {
		return nil, err
	}
	ix.startAppliers()
	// Bulk-index the current lake contents and subscribe to the change feed
	// atomically: Subscribe quiesces the lake (write lock held, event
	// queue drained) across both, so a concurrent ingest can never land
	// between the snapshot walk and the subscription (it would be neither
	// bulk-indexed nor delivered). Live events then flow through the
	// pipelined prepare/apply stages (see applier.go).
	unsubscribe, err := lake.Subscribe(func() error {
		if err := ix.ingest(); err != nil {
			return err
		}
		// Train IVF cells after bulk load. Vectors added afterwards are
		// assigned to their nearest trained cell by vecindex.IVF.Add.
		if cfg.EnableVector && cfg.Vector == VectorIVF {
			for _, shards := range ix.vec {
				for _, v := range shards {
					if ivf, ok := v.(*vecindex.IVF); ok {
						ivf.Train()
					}
				}
			}
		}
		return nil
	}, datalake.Subscriber{Prepare: ix.prepareHook, Apply: ix.apply})
	if err != nil {
		ix.stopAppliers()
		return nil, err
	}
	ix.unsubscribe = unsubscribe
	return ix, nil
}

// Close detaches the indexer from the lake's change feed and shuts its
// per-shard appliers down after draining their queues. A replaced or
// abandoned indexer must be closed, or every future ingest keeps feeding
// (and growing) its dead index structures. The indexes remain searchable
// after Close; they just stop updating. Idempotent.
func (ix *Indexer) Close() {
	ix.closeOnce.Do(func() {
		if ix.unsubscribe != nil {
			// Blocks until any in-flight delivery has returned, so no task
			// can be enqueued after the applier queues close.
			ix.unsubscribe()
		}
		ix.stopAppliers()
	})
}

// stopAppliers closes the applier queues and waits for queued tasks to
// drain (their completions still reach the lake's version watermark).
func (ix *Indexer) stopAppliers() {
	for _, ch := range ix.appliers {
		close(ch)
	}
	ix.applierWG.Wait()
}

// Embedder exposes the shared embedding space (the reranker uses the same
// space for late interaction).
func (ix *Indexer) Embedder() *embed.Embedder { return ix.emb }

func (ix *Indexer) newVectorIndex() (vectorIndex, error) {
	switch ix.cfg.Vector {
	case VectorFlat:
		if ix.cfg.Quantize {
			return vecindex.NewSQFlat(ix.cfg.EmbedDim, vecindex.Cosine, ix.cfg.RerankMultiple), nil
		}
		return vecindex.NewFlat(ix.cfg.EmbedDim, vecindex.Cosine), nil
	case VectorIVF:
		return vecindex.NewIVF(ix.cfg.EmbedDim, vecindex.Cosine, ix.cfg.IVFLists, ix.cfg.IVFProbes, ix.cfg.Seed), nil
	case VectorLSH:
		return vecindex.NewLSH(ix.cfg.EmbedDim, ix.cfg.LSHBits, ix.cfg.LSHTables, ix.cfg.Seed), nil
	default:
		return nil, fmt.Errorf("core: unknown vector index kind %d", int(ix.cfg.Vector))
	}
}

// wantKind reports whether the config indexes this granularity.
func (ix *Indexer) wantKind(kind datalake.Kind) bool {
	for _, k := range ix.cfg.Kinds {
		if k == kind {
			return true
		}
	}
	return false
}

// shard maps an instance ID to its shard ordinal (inline FNV-1a: the
// hasher sits on the per-instance ingest hot path, and hash/fnv's
// interface-based API would allocate on every call).
func (ix *Indexer) shard(id string) int {
	if ix.cfg.Shards <= 1 {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return int(h % uint32(ix.cfg.Shards))
}

// ingest walks the lake and feeds both index families.
func (ix *Indexer) ingest() error {
	if ix.wantKind(datalake.KindTable) || ix.wantKind(datalake.KindTuple) {
		for _, tid := range ix.lake.TableIDs() {
			t, ok := ix.lake.Table(tid)
			if !ok {
				return fmt.Errorf("core: lake table %q vanished during ingest", tid)
			}
			if err := ix.indexTable(t); err != nil {
				return err
			}
		}
	}
	if ix.wantKind(datalake.KindText) {
		for _, did := range ix.lake.DocIDs() {
			d, ok := ix.lake.Document(did)
			if !ok {
				return fmt.Errorf("core: lake document %q vanished during ingest", did)
			}
			if err := ix.indexDocument(d); err != nil {
				return err
			}
		}
	}
	if ix.wantKind(datalake.KindEntity) {
		g := ix.lake.Graph()
		for _, e := range g.Entities() {
			id := datalake.EntityInstanceID(e)
			if err := ix.add(datalake.KindEntity, id, g.SerializeEntity(e)); err != nil {
				return err
			}
		}
	}
	return nil
}

// indexTable indexes a table whole and/or per tuple, per the configured
// kinds (bulk-load path). It runs the same prepare/apply implementation as
// the live pipeline, just synchronously on the calling goroutine.
func (ix *Indexer) indexTable(t *table.Table) error {
	pe := ix.prepareEvent(datalake.Event{Kind: datalake.KindTable, Table: t})
	return ix.applyOps(pe.bm25, pe.vec)
}

// indexDocument indexes a text document (whole for BM25, chunked for the
// vector family when configured), sharing the live path's implementation.
func (ix *Indexer) indexDocument(d *doc.Document) error {
	pe := ix.prepareEvent(datalake.Event{Kind: datalake.KindText, Doc: d})
	return ix.applyOps(pe.bm25, pe.vec)
}

// add indexes one instance in both families, on the instance's shard.
func (ix *Indexer) add(kind datalake.Kind, id, text string) error {
	if shards, ok := ix.bm25[kind]; ok {
		if err := shards[ix.shard(id)].Add(id, text); err != nil {
			return fmt.Errorf("core: bm25 add %s: %w", id, err)
		}
	}
	if shards, ok := ix.vec[kind]; ok {
		if err := shards[ix.shard(id)].Add(id, ix.emb.EmbedText(text)); err != nil {
			return fmt.Errorf("core: vector add %s: %w", id, err)
		}
	}
	return nil
}

// remove drops one instance from both families (no-op for unindexed IDs).
// For chunked text instances the vector family stores per-chunk sub-IDs
// ("id@seq"), which are enumerated and removed individually.
func (ix *Indexer) remove(kind datalake.Kind, id string) {
	if shards, ok := ix.bm25[kind]; ok {
		shards[ix.shard(id)].Delete(id)
	}
	shards, ok := ix.vec[kind]
	if !ok {
		return
	}
	shards[ix.shard(id)].Remove(id)
	if kind == datalake.KindText && ix.cfg.ChunkTokens > 0 {
		// Chunk sequence numbers are contiguous from 0, so stop at the
		// first miss.
		for seq := 0; ; seq++ {
			chunkID := fmt.Sprintf("%s@%d", id, seq)
			if !shards[ix.shard(chunkID)].Remove(chunkID) {
				break
			}
		}
	}
}

// reindexEntity refreshes an entity's serialized neighborhood after a new
// triple about it arrived: the stale instance (if any) is tombstoned and the
// re-serialized neighborhood indexed in its place. The instance is keyed by
// the graph's canonical (first-seen) subject casing — the same key bulk
// ingest derives from Graph.Entities() — so a triple whose subject varies
// only in case updates the existing instance instead of forking a new one.
func (ix *Indexer) reindexEntity(entity string) error {
	if !ix.wantKind(datalake.KindEntity) {
		return nil
	}
	g := ix.lake.Graph()
	if canon, ok := g.Canonical(entity); ok {
		entity = canon
	}
	id := datalake.EntityInstanceID(entity)
	ix.remove(datalake.KindEntity, id)
	return ix.add(datalake.KindEntity, id, g.SerializeEntity(entity))
}

// scoredHit is one shard-local search result.
type scoredHit struct {
	id    string
	score float64
}

// retrGroup collects the shard results for one (kind, family) pair; shard
// lists merge by score into the group's final ranking.
type retrGroup struct {
	family    string
	shardHits [][]scoredHit
}

// merged flattens the group's shard lists into a single best-first list of
// at most k hits (score descending, ties by ascending ID — the same order
// each shard already emits).
func (g *retrGroup) merged(k int) []scoredHit {
	if len(g.shardHits) == 1 {
		return g.shardHits[0]
	}
	var all []scoredHit
	for _, hs := range g.shardHits {
		all = append(all, hs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score > all[j].score
		}
		return all[i].id < all[j].id
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// runParallel executes tasks on a bounded worker pool (inline when the pool
// would be pointless).
func runParallel(tasks []func(), workers int) {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 || len(tasks) <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	jobs := make(chan func())
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				t()
			}
		}()
	}
	for _, t := range tasks {
		jobs <- t
	}
	close(jobs)
	wg.Wait()
}

// families selects which index families to search: both for Retrieve, one
// for RetrieveFamily.
const (
	familyBM25   = "bm25"
	familyVector = "vector"
)

// search fans retrieval out across shards × kinds × the requested families
// on the bounded worker pool, merges each (kind, family) group's shard
// results by score, and returns the ranked hits in deterministic group
// order (kinds as requested, BM25 before vector). A cancelled context
// makes unstarted shard searches no-ops, so an abandoned request drains
// the pool quickly; the (partial) hits of a cancelled search must be
// discarded by the caller, which owns surfacing ctx.Err().
func (ix *Indexer) search(ctx context.Context, query string, k int, kinds []datalake.Kind, wantBM25, wantVector bool) []provenance.RetrievalHit {
	return ix.searchShards(ctx, query, k, kinds, wantBM25, wantVector, ix.bm25, ix.vec)
}

// searchShards is search over explicit shard maps: the live indexes for
// head reads, or a pinned snapshot's materialized shards for time-travel
// reads. Everything else — the worker pool, the query embedding, the
// per-family latency metrics, the merge order — is shared, so a
// pinned retrieval ranks exactly as a head retrieval over the same data.
func (ix *Indexer) searchShards(ctx context.Context, query string, k int, kinds []datalake.Kind, wantBM25, wantVector bool, bm25 map[datalake.Kind][]*invindex.Index, vec map[datalake.Kind][]vectorIndex) []provenance.RetrievalHit {
	if len(kinds) == 0 {
		kinds = ix.cfg.Kinds
	}
	// Embed the query only when some requested kind actually has a vector
	// index; BM25-only retrievals (and kinds outside the configured set)
	// skip the embedding computation entirely.
	var qvec embed.Vector
	if wantVector {
		needVec := false
		for _, kind := range kinds {
			if len(vec[kind]) > 0 {
				needVec = true
				break
			}
		}
		if needVec {
			qvec = ix.emb.EmbedText(query)
		}
	}

	// Analyze the query once; every BM25 shard shares the same chain, so
	// fan-out does not re-tokenize per shard.
	var qterms []string
	var groups []*retrGroup
	var tasks []func()
	for _, kind := range kinds {
		if wantBM25 {
			if shards := bm25[kind]; len(shards) > 0 {
				if qterms == nil {
					qterms = shards[0].Analyze(query)
				}
				g := &retrGroup{family: familyBM25, shardHits: make([][]scoredHit, len(shards))}
				groups = append(groups, g)
				for si, sh := range shards {
					si, sh := si, sh
					tasks = append(tasks, func() {
						if ctx.Err() != nil {
							return
						}
						start := time.Now()
						for _, h := range sh.SearchTerms(qterms, k) {
							g.shardHits[si] = append(g.shardHits[si], scoredHit{id: h.ID, score: h.Score})
						}
						ix.m.searchBM25.Since(start)
					})
				}
			}
		}
		if wantVector {
			if shards := vec[kind]; len(shards) > 0 {
				g := &retrGroup{family: familyVector, shardHits: make([][]scoredHit, len(shards))}
				groups = append(groups, g)
				for si, sh := range shards {
					si, sh := si, sh
					tasks = append(tasks, func() {
						if ctx.Err() != nil {
							return
						}
						start := time.Now()
						for _, h := range sh.Search(qvec, k) {
							g.shardHits[si] = append(g.shardHits[si], scoredHit{id: h.ID, score: h.Score})
						}
						ix.m.searchVector.Since(start)
					})
				}
			}
		}
	}
	runParallel(tasks, ix.workers)

	var hits []provenance.RetrievalHit
	for _, g := range groups {
		for rank, h := range g.merged(k) {
			id := h.id
			if g.family == familyVector {
				id = chunkParent(id)
			}
			hits = append(hits, provenance.RetrievalHit{Index: g.family, InstanceID: id, Score: h.score, Rank: rank})
		}
	}
	return hits
}

// Retrieve runs the task-agnostic retrieval for the query against the given
// kinds (all configured kinds when none given): top-k per index family per
// kind, fanned out in parallel across index shards. It returns the raw hits
// (for provenance) and the combined, deduplicated candidate IDs in
// best-first order — the Combiner of Section 3.1.
func (ix *Indexer) Retrieve(query string, k int, kinds ...datalake.Kind) ([]provenance.RetrievalHit, []string) {
	return ix.RetrieveCtx(context.Background(), query, k, kinds...)
}

// RetrieveCtx is Retrieve honoring a request context: once ctx is
// cancelled, shard searches that have not started are skipped, so an
// abandoned request stops occupying the retrieval worker pool. The
// possibly partial results of a cancelled retrieval are returned as-is;
// callers must check ctx.Err() and discard them.
func (ix *Indexer) RetrieveCtx(ctx context.Context, query string, k int, kinds ...datalake.Kind) ([]provenance.RetrievalHit, []string) {
	hits := ix.search(ctx, query, k, kinds, true, ix.cfg.EnableVector)
	return hits, combine(hits)
}

// RetrieveFamily retrieves from a single index family ("bm25" or "vector"),
// for the Combiner ablation. Unknown family names return nothing.
func (ix *Indexer) RetrieveFamily(query, family string, k int, kinds ...datalake.Kind) []string {
	switch family {
	case familyBM25:
		return combine(ix.search(context.Background(), query, k, kinds, true, false))
	case familyVector:
		if !ix.cfg.EnableVector {
			return nil
		}
		return combine(ix.search(context.Background(), query, k, kinds, false, true))
	default:
		return nil
	}
}

// chunkParent strips a chunk suffix ("text:doc-1@2" → "text:doc-1").
func chunkParent(id string) string {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '@' {
			return id[:i]
		}
		if id[i] < '0' || id[i] > '9' {
			break
		}
	}
	return id
}

// combine merges hits from all indexes, deduplicating by instance ID — the
// Combiner of Section 3.1. Ordering uses reciprocal-rank fusion
// (score = Σ 1/(60+rank) over the index lists containing the instance), the
// standard way to merge rankings from incomparable scoring functions:
// instances both families agree on rise, and one family's noise cannot bury
// the other's best hits.
func combine(hits []provenance.RetrievalHit) []string {
	if len(hits) == 0 {
		return nil
	}
	const rrfK = 60
	scores := make(map[string]float64, len(hits))
	order := make([]string, 0, len(hits))
	for _, h := range hits {
		if _, seen := scores[h.InstanceID]; !seen {
			order = append(order, h.InstanceID)
		}
		scores[h.InstanceID] += 1 / float64(rrfK+h.Rank)
	}
	sort.SliceStable(order, func(i, j int) bool {
		si, sj := scores[order[i]], scores[order[j]]
		if si != sj {
			return si > sj
		}
		return order[i] < order[j]
	})
	return order
}
