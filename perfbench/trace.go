package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/trust"
	"repro/internal/verify"
	"repro/internal/wal"
)

// The traced run replays verifications stage by stage in library mode,
// timing each call into a layer's public functions from here, so the
// program itself carries no tracing. The replay must reproduce what
// System.Verify*Ctx returns for the same object; the fidelity check holds
// it to that.

// stageTimes is the traced breakdown of one verification.
type stageTimes struct {
	retrieve, resolve, rerank, verify, verdict, provenance time.Duration
	// byScorer is rerank time per scorer name.
	byScorer   map[string]time.Duration
	candidates int
	scored     int
	calls      int
	// Timed outside the replay's wall time: the query embedding alone,
	// and each index family on its own.
	embed, bm25, vector time.Duration
}

func (s stageTimes) sum() time.Duration {
	return s.retrieve + s.resolve + s.rerank + s.verify + s.verdict + s.provenance
}

// replayed is what the replay decided, for comparison with the library.
type replayed struct {
	ids     []string
	scores  []float64
	verdict verify.Verdict
}

// tracer replays the pipeline over the library system's own indexer and
// lake, with a scorer registry and verifier agent built exactly as
// verifai.NewSystem builds them.
type tracer struct {
	sys   *verifai.System
	ix    *core.Indexer
	lake  *datalake.Lake
	rr    *rerank.Registry
	agent *verify.Agent
	prov  *provenance.Store
	cfg   core.PipelineConfig
}

func newTracer(sys *verifai.System) *tracer {
	p := sys.Pipeline()
	opts := options()
	return &tracer{
		sys: sys, ix: p.Indexer(), lake: p.Lake(),
		rr:    rerank.NewRegistry(rerank.NewColBERT(p.Indexer().Embedder(), 256)),
		agent: verify.NewAgent(verify.NewLLMVerifier(opts.LLM)),
		prov:  provenance.NewStore(),
		cfg:   core.DefaultPipelineConfig(),
	}
}

// replay runs retrieve → resolve → rerank → verify → verdict → provenance
// for r, timing each stage.
func (t *tracer) replay(ctx context.Context, r request) (replayed, stageTimes, error) {
	st := stageTimes{byScorer: make(map[string]time.Duration)}
	g := r.object()
	query := g.Query()

	t0 := time.Now()
	hits, combined := t.ix.RetrieveCtx(ctx, query, t.cfg.TopK, r.kinds()...)
	t1 := time.Now()
	instances := make([]datalake.Instance, 0, len(combined))
	for _, id := range combined {
		inst, err := t.lake.Resolve(id)
		if err != nil {
			return replayed{}, st, fmt.Errorf("resolve %s: %w", id, err)
		}
		instances = append(instances, inst)
	}
	t2 := time.Now()
	q := rerank.Query{Text: query}
	if g.Kind == verify.KindTuple {
		tp := g.Tuple
		q.Tuple = &tp
	} else {
		c := g.Claim
		q.Claim = &c
	}
	scored := make([]rerank.Scored, 0, len(instances))
	byID := make(map[string]datalake.Instance, len(instances))
	for _, inst := range instances {
		sc := t.rr.Route(q, inst.Kind)
		s0 := time.Now()
		score := sc.Score(q, inst)
		st.byScorer[sc.Name()] += time.Since(s0)
		scored = append(scored, rerank.Scored{ID: inst.ID, Score: score})
		byID[inst.ID] = inst
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].Score != scored[j].Score {
			return scored[i].Score > scored[j].Score
		}
		return scored[i].ID < scored[j].ID
	})
	if len(scored) > t.cfg.TopKPrime {
		scored = scored[:t.cfg.TopKPrime]
	}
	t3 := time.Now()
	results := make([]verify.Result, len(scored))
	for i, s := range scored {
		res, err := t.agent.Verify(g, byID[s.ID])
		if err != nil {
			return replayed{}, st, err
		}
		results[i] = res
	}
	t4 := time.Now()
	out := replayed{verdict: verify.NotRelated}
	votes := make(map[string][]float64)
	var decisions []provenance.VerifierDecision
	var entries []provenance.RerankEntry
	for i, s := range scored {
		in := byID[s.ID]
		trustOf := t.sys.Pipeline().SourceTrust(in.SourceID)
		out.ids = append(out.ids, s.ID)
		out.scores = append(out.scores, s.Score)
		entries = append(entries, provenance.RerankEntry{InstanceID: s.ID, Score: s.Score, Rank: i})
		decisions = append(decisions, provenance.VerifierDecision{
			InstanceID: in.ID, SourceID: in.SourceID, Verifier: results[i].Verifier,
			Verdict: results[i].Verdict.String(), Explanation: results[i].Explanation, SourceTrust: trustOf,
		})
		if results[i].Verdict != verify.NotRelated {
			votes[results[i].Verdict.String()] = append(votes[results[i].Verdict.String()], trustOf)
		}
	}
	if len(votes) > 0 {
		switch label, _ := trust.WeightedVerdict(votes); label {
		case verify.Verified.String():
			out.verdict = verify.Verified
		case verify.Refuted.String():
			out.verdict = verify.Refuted
		}
	}
	t5 := time.Now()
	t.prov.Append(provenance.Record{
		ObjectID: g.ID, Query: query, Hits: hits, Combined: combined, Reranked: entries,
		Decisions: decisions, FinalVerdict: out.verdict.String(), Resolution: "trust-weighted majority",
	})
	t6 := time.Now()

	st.retrieve, st.resolve, st.rerank = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	st.verify, st.verdict, st.provenance = t4.Sub(t3), t5.Sub(t4), t6.Sub(t5)
	st.candidates, st.scored, st.calls = len(combined), len(instances), len(scored)
	return out, st, nil
}

// measureExtras times the layers the replay's wall time leaves out: the
// query embedding on its own and each index family on its own.
func (t *tracer) measureExtras(r request, st *stageTimes) {
	query := r.object().Query()
	t0 := time.Now()
	t.ix.Embedder().EmbedText(query)
	t1 := time.Now()
	t.ix.RetrieveFamily(query, "bm25", t.cfg.TopK, r.kinds()...)
	t2 := time.Now()
	t.ix.RetrieveFamily(query, "vector", t.cfg.TopK, r.kinds()...)
	t3 := time.Now()
	st.embed, st.bm25, st.vector = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
}

// libVerify is the untraced library call for r.
func libVerify(ctx context.Context, sys *verifai.System, r request) (core.Report, error) {
	if r.kind == opTuple {
		return sys.VerifyImputedTupleCtx(ctx, r.id, r.tuple, r.attr, r.kinds()...)
	}
	return sys.VerifyClaimCtx(ctx, r.id, r.claim, r.kinds()...)
}

// parallelEach runs fn over reqs on workers goroutines and returns the
// wall time; fn receives each request's index.
func parallelEach(n, workers int, fn func(i int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// traceResult is the library-mode breakdown over a set of requests.
type traceResult struct {
	libMs      [2][]float64 // untraced library call, by opKind
	libTotal   time.Duration
	replayTime time.Duration
	stages     []stageTimes
	mismatches []string
}

// traceRun verifies reqs through the library once untimed, which fills the
// same caches either way and yields the reports the replay must match.
// It then times, per object, the untraced library call and the traced
// replay, alternating which goes first so neither profits from the other
// having just touched the object's data.
func traceRun(t *tracer, reqs []request, workers int) (*traceResult, error) {
	ctx := context.Background()
	res := &traceResult{stages: make([]stageTimes, len(reqs))}
	reports := make([]core.Report, len(reqs))
	errs := make([]error, len(reqs))
	parallelEach(len(reqs), workers, func(i int) {
		reports[i], errs[i] = libVerify(ctx, t.sys, reqs[i])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("trace: library pass: %w", err)
	}
	libDur := make([]time.Duration, len(reqs))
	replayDur := make([]time.Duration, len(reqs))
	outs := make([]replayed, len(reqs))
	parallelEach(len(reqs), workers, func(i int) {
		lib := func() {
			t0 := time.Now()
			_, errs[i] = libVerify(ctx, t.sys, reqs[i])
			libDur[i] = time.Since(t0)
		}
		if i%2 == 0 {
			lib()
		}
		t0 := time.Now()
		var err error
		outs[i], res.stages[i], err = t.replay(ctx, reqs[i])
		replayDur[i] = time.Since(t0)
		if i%2 == 1 {
			lib()
		}
		errs[i] = errors.Join(errs[i], err)
	})
	for i := range reqs {
		if errs[i] != nil {
			return nil, fmt.Errorf("trace %s: %w", reqs[i].id, errs[i])
		}
		t.measureExtras(reqs[i], &res.stages[i])
		res.libMs[reqs[i].kind] = append(res.libMs[reqs[i].kind], ms(libDur[i]))
		res.libTotal += libDur[i]
		res.replayTime += replayDur[i]
		if msg := compareReplay(reports[i], outs[i]); msg != "" {
			res.mismatches = append(res.mismatches, reqs[i].id+": "+msg)
		}
	}
	return res, nil
}

// compareReplay describes how a replay differs from the library's report
// (top-k′ IDs, rerank scores, verdict), or returns "".
func compareReplay(rep core.Report, out replayed) string {
	if rep.Verdict != out.verdict {
		return fmt.Sprintf("verdict %s, replay %s", rep.Verdict, out.verdict)
	}
	if len(rep.Evidence) != len(out.ids) {
		return fmt.Sprintf("%d evidence, replay %d", len(rep.Evidence), len(out.ids))
	}
	for i, ev := range rep.Evidence {
		if ev.Instance.ID != out.ids[i] || ev.RerankScore != out.scores[i] {
			return fmt.Sprintf("evidence %d is %s@%v, replay %s@%v", i, ev.Instance.ID, ev.RerankScore, out.ids[i], out.scores[i])
		}
	}
	return ""
}

// ingestTrace times the write path's layers on the batches the run sent:
// System.AddBatch on the in-memory library system, the embedding of each
// item, and wal.Log Append and Sync on a scratch log holding the same
// records.
type ingestTrace struct {
	addBatchMs []float64
	embedMs    float64 // per item
	appendUs   []float64
	syncMs     []float64
}

func traceIngest(sys *verifai.System, sent []batch, scratch string) (*ingestTrace, error) {
	out := &ingestTrace{}
	emb := sys.Pipeline().Indexer().Embedder()
	var embedTotal time.Duration
	items := 0
	for _, sb := range sent {
		batch := make([]datalake.BatchItem, len(sb.items))
		for i, it := range sb.items {
			batch[i] = toBatchItem(it)
		}
		t0 := time.Now()
		res, err := sys.AddBatch(batch)
		out.addBatchMs = append(out.addBatchMs, ms(time.Since(t0)))
		if err != nil {
			return nil, fmt.Errorf("library AddBatch: %w", err)
		}
		for _, r := range res {
			if r.Err != nil {
				return nil, fmt.Errorf("library AddBatch item: %w", r.Err)
			}
		}
		for _, it := range batch {
			t0 := time.Now()
			switch {
			case it.Table != nil:
				emb.EmbedText(it.Table.SerializeForIndex())
				texts := make([]string, 0, it.Table.NumRows())
				for row := range it.Table.Rows {
					tp, _ := it.Table.TupleAt(row)
					texts = append(texts, tp.SerializeForIndex())
				}
				emb.EmbedTexts(texts, 0)
			case it.Doc != nil:
				emb.EmbedText(it.Doc.SerializeForIndex())
			case it.Triple != nil:
				emb.EmbedText(sys.Pipeline().Lake().Graph().SerializeEntity(it.Triple.Subject))
			}
			embedTotal += time.Since(t0)
			items++
		}
	}
	out.embedMs = ratio(ms(embedTotal), float64(items))

	dir := filepath.Join(scratch, "wal")
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncInterval}, nil)
	if err != nil {
		return nil, fmt.Errorf("scratch wal: %w", err)
	}
	defer os.RemoveAll(dir)
	defer log.Close()
	var version uint64
	for _, sb := range sent {
		recs := make([]wal.Record, 0, len(sb.items))
		for _, it := range sb.items {
			bi := toBatchItem(it)
			version++
			rec := wal.Record{Version: version}
			switch {
			case bi.Table != nil:
				rec.Kind, rec.Table = wal.KindTable, bi.Table
			case bi.Doc != nil:
				rec.Kind, rec.Doc = wal.KindDocument, bi.Doc
			default:
				rec.Kind, rec.Triple = wal.KindTriple, bi.Triple
			}
			recs = append(recs, rec)
		}
		t0 := time.Now()
		if err := log.Append(recs...); err != nil {
			return nil, fmt.Errorf("scratch wal append: %w", err)
		}
		t1 := time.Now()
		if err := log.Sync(); err != nil {
			return nil, fmt.Errorf("scratch wal sync: %w", err)
		}
		t2 := time.Now()
		out.appendUs = append(out.appendUs, float64(t1.Sub(t0))/float64(time.Microsecond)/float64(len(recs)))
		out.syncMs = append(out.syncMs, ms(t2.Sub(t1)))
	}
	return out, nil
}
