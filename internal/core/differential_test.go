package core

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/verify"
)

// diffRequest is one verification in the differential set.
type diffRequest struct {
	g     verify.Generated
	kinds []datalake.Kind
}

// diffRequests is the fixed claim and tuple set over smallLake: the
// Figure 4 sum claim, lookup claims that verify and refute, every e1 row
// as a correct tuple, and a wrong tuple, across several evidence-kind sets
// (including the empty set, which normalizes to every indexed kind).
func diffRequests(t *testing.T, lake *datalake.Lake) []diffRequest {
	t.Helper()
	reqs := []diffRequest{
		{golfClaimObject(), []datalake.Kind{datalake.KindTable}},
		{golfClaimObject(), []datalake.Kind{datalake.KindText, datalake.KindTable}},
		{golfClaimObject(), nil},
	}
	for _, value := range []string{"570", "571"} {
		c := claims.Claim{
			Context:   "1954 u.s. open (golf)",
			Entities:  []string{"tommy bolt"},
			Attribute: "money",
			Op:        claims.OpLookup,
			Value:     value,
		}
		c.Render()
		reqs = append(reqs, diffRequest{verify.NewClaimObject("lookup-"+value, c), []datalake.Kind{datalake.KindTable}})
	}
	e1, _ := lake.Table("e1")
	for row := 0; row < e1.NumRows(); row++ {
		tp, _ := e1.TupleAt(row)
		g := verify.NewTupleObject(fmt.Sprintf("row-%d", row), tp, "money")
		reqs = append(reqs,
			diffRequest{g, []datalake.Kind{datalake.KindTuple, datalake.KindText}},
			diffRequest{g, []datalake.Kind{datalake.KindEntity}})
	}
	tp, _ := e1.TupleAt(1)
	reqs = append(reqs, diffRequest{verify.NewTupleObject("wrong", tp.WithValue("money", "999"), "money"),
		[]datalake.Kind{datalake.KindTuple, datalake.KindText}})
	return reqs
}

// canonEvidence and canonReport are the parts of a Report that must not
// depend on how it was served. ProvenanceSeq (a cache hit returns the
// original lineage record) and AsOfVersion (the read's stamp) are left out.
type canonEvidence struct {
	ID, Verifier, Verdict, Explanation string
	RerankScore, SourceTrust           float64
}

type canonReport struct {
	ObjectID, Verdict string
	Confidence        float64
	Evidence          []canonEvidence
}

func canonical(rep Report) canonReport {
	c := canonReport{ObjectID: rep.Object.ID, Verdict: rep.Verdict.String(), Confidence: rep.Confidence}
	for _, ev := range rep.Evidence {
		c.Evidence = append(c.Evidence, canonEvidence{
			ID: ev.Instance.ID, Verifier: ev.Result.Verifier, Verdict: ev.Result.Verdict.String(),
			Explanation: ev.Result.Explanation, RerankScore: ev.RerankScore, SourceTrust: ev.SourceTrust,
		})
	}
	return c
}

// TestVerifyPathDifferential checks that the verify path's serving choices
// do not change results: for every request in the fixed set, the canonical
// Report is identical with the result cache off (sequential and
// concurrent), with the cache on (miss, then hit), and pinned at the
// current head version (miss, then hit), and only computed verifications
// record lineage.
func TestVerifyPathDifferential(t *testing.T) {
	lake := smallLake(t)
	indexer, err := BuildIndexer(lake, DefaultIndexerConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(indexer.Close)
	newPipeline := func(cacheSize int) *Pipeline {
		cfg := DefaultPipelineConfig()
		cfg.ResultCache = cacheSize
		p, err := NewPipeline(lake, indexer, rerank.NewRegistry(rerank.NewColBERT(indexer.Embedder(), 128)),
			verify.NewAgent(verify.NewExactVerifier()), provenance.NewStore(), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		return p
	}
	uncached, cached := newPipeline(0), newPipeline(DefaultPipelineConfig().ResultCache)
	reqs := diffRequests(t, lake)
	ctx := context.Background()

	verifyAll := func(p *Pipeline, asOf uint64) []canonReport {
		t.Helper()
		out := make([]canonReport, len(reqs))
		for i, r := range reqs {
			rep, err := p.Verify(ctx, r.g, asOf, r.kinds...)
			if err != nil {
				t.Fatalf("%s: %v", r.g.ID, err)
			}
			if rep.AsOfVersion != asOf {
				t.Fatalf("%s: AsOfVersion = %d, want %d", r.g.ID, rep.AsOfVersion, asOf)
			}
			out[i] = canonical(rep)
		}
		return out
	}
	want := verifyAll(uncached, 0)
	compare := func(arm string, got []canonReport) {
		t.Helper()
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("%s: %s %v differs from the uncached report:\n  got  %+v\n  want %+v",
					arm, reqs[i].g.ID, reqs[i].kinds, got[i], want[i])
			}
		}
	}

	concurrent := make([]canonReport, len(reqs))
	var wg sync.WaitGroup
	for i, r := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := uncached.Verify(ctx, r.g, 0, r.kinds...)
			if err != nil {
				t.Error(err)
				return
			}
			concurrent[i] = canonical(rep)
		}()
	}
	wg.Wait()
	compare("cache off, concurrent", concurrent)

	n := uint64(len(reqs))
	// Every computed verification records one lineage entry; a cache hit
	// returns the original Report and records none.
	checkLineage := func(arm string, p *Pipeline, want uint64) {
		t.Helper()
		if got := uint64(p.Provenance().Len()); got != want {
			t.Errorf("%s: %d provenance records, want %d", arm, got, want)
		}
	}
	checkLineage("cache off", uncached, 2*n)
	checkCounts := func(arm string, hits, misses uint64) {
		t.Helper()
		if s := cached.Stats(); s.ResultCacheHits != hits || s.ResultCacheMisses != misses {
			t.Fatalf("%s: cache hits/misses = %d/%d, want %d/%d", arm, s.ResultCacheHits, s.ResultCacheMisses, hits, misses)
		}
	}
	compare("cache miss", verifyAll(cached, 0))
	checkCounts("cache miss", 0, n)
	compare("cache hit", verifyAll(cached, 0))
	checkCounts("cache hit", n, n)

	snap, err := cached.TakeSnapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version() != lake.Version() {
		t.Fatalf("snapshot at version %d, want head %d", snap.Version(), lake.Version())
	}
	compare("pinned miss", verifyAll(cached, snap.Version()))
	checkCounts("pinned miss", n, 2*n)
	compare("pinned hit", verifyAll(cached, snap.Version()))
	checkCounts("pinned hit", 2*n, 2*n)
	checkLineage("cache on", cached, 2*n)
}

// failingVerifier always errors, for error-path tests.
type failingVerifier struct{}

func (failingVerifier) Name() string                                  { return "failing" }
func (failingVerifier) Supports(verify.Generated, datalake.Kind) bool { return true }
func (failingVerifier) Verify(verify.Generated, datalake.Instance) (verify.Result, error) {
	return verify.Result{}, fmt.Errorf("synthetic failure")
}

// TestVerifyPropagatesVerifierError checks that a verifier error fails the
// verification, at head and at a pin, and that the failure is never cached.
func TestVerifyPropagatesVerifierError(t *testing.T) {
	lake := smallLake(t)
	good := buildPipeline(t, lake, true)
	p, err := NewPipeline(lake, good.Indexer(), good.rerankers, verify.NewAgent(failingVerifier{}), nil, nil, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	snap, err := p.TakeSnapshot(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, asOf := range []uint64{0, snap.Version(), 0, snap.Version()} {
		if _, err := p.Verify(context.Background(), golfClaimObject(), asOf, datalake.KindTable); err == nil {
			t.Fatalf("asOf %d: verifier error swallowed", asOf)
		}
	}
	if s := p.Stats(); s.ResultCacheHits != 0 || s.ResultCacheSize != 0 {
		t.Fatalf("failed verifications were cached: %+v", s)
	}
}
