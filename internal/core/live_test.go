package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/kg"
	"repro/internal/provenance"
	"repro/internal/rerank"
	"repro/internal/table"
	"repro/internal/verify"
)

// liveIndexer builds an indexer over a small lake with the given shard
// count, returning both.
func liveIndexer(t *testing.T, shards int) (*datalake.Lake, *Indexer) {
	t.Helper()
	lake := smallLake(t)
	cfg := DefaultIndexerConfig(1)
	cfg.Shards = shards
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lake, ix
}

func containsID(ids []string, want string) bool {
	for _, id := range ids {
		if id == want {
			return true
		}
	}
	return false
}

// TestLiveIngestIndexed checks the tentpole contract: instances ingested
// after BuildIndexer are retrievable without a rebuild, across all three
// modalities, via the lake's change feed.
func TestLiveIngestIndexed(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			lake, ix := liveIndexer(t, shards)

			late := table.New("late1", "1965 masters tournament", []string{"player", "strokes"})
			late.SourceID = "s1"
			late.MustAppendRow("jack nicklaus", "271")
			if err := lake.AddTable(late); err != nil {
				t.Fatal(err)
			}
			_, combined := ix.Retrieve("1965 masters tournament jack nicklaus", 10, datalake.KindTable)
			if !containsID(combined, "table:late1") {
				t.Fatalf("late table not retrieved: %v", combined)
			}
			_, combined = ix.Retrieve("jack nicklaus strokes 271", 10, datalake.KindTuple)
			if !containsID(combined, "tuple:late1#0") {
				t.Fatalf("late tuple not retrieved: %v", combined)
			}

			if err := lake.AddDocument(&doc.Document{
				ID: "late-doc", Title: "Arnold Palmer", SourceID: "s2",
				Text: "Arnold Palmer won the 1964 masters tournament by six strokes.",
			}); err != nil {
				t.Fatal(err)
			}
			_, combined = ix.Retrieve("arnold palmer 1964 masters", 10, datalake.KindText)
			if !containsID(combined, "text:late-doc") {
				t.Fatalf("late document not retrieved: %v", combined)
			}

			if err := lake.AddTriple(kg.Triple{
				Subject: "gary player", Predicate: "winner of 1961 masters", Object: "280", SourceID: "s1",
			}); err != nil {
				t.Fatal(err)
			}
			_, combined = ix.Retrieve("gary player winner 1961 masters", 10, datalake.KindEntity)
			if !containsID(combined, "entity:gary player") {
				t.Fatalf("late entity not retrieved: %v", combined)
			}

			// A second triple about the same subject — here with variant
			// casing — refreshes the canonical neighborhood instance rather
			// than duplicating or erroring.
			if err := lake.AddTriple(kg.Triple{
				Subject: "GARY PLAYER", Predicate: "country", Object: "south africa", SourceID: "s1",
			}); err != nil {
				t.Fatal(err)
			}
			_, combined = ix.Retrieve("gary player country south africa", 10, datalake.KindEntity)
			if !containsID(combined, "entity:gary player") {
				t.Fatalf("refreshed entity not retrieved: %v", combined)
			}
			if containsID(combined, "entity:GARY PLAYER") {
				t.Fatalf("variant-cased triple forked a duplicate entity instance: %v", combined)
			}
			// The refreshed instance carries the new fact.
			inst, err := lake.Resolve("entity:gary player")
			if err != nil {
				t.Fatal(err)
			}
			if s := inst.Serialize(); !strings.Contains(s, "south africa") {
				t.Fatalf("refreshed neighborhood missing new triple: %q", s)
			}
		})
	}
}

// TestClosedIndexerStopsUpdating checks that Close detaches the indexer
// from the lake's change feed: a replaced indexer must stop consuming
// ingests while a live one on the same lake keeps indexing.
func TestClosedIndexerStopsUpdating(t *testing.T) {
	lake, old := liveIndexer(t, 1)
	cfg := DefaultIndexerConfig(1)
	replacement, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	old.Close()
	old.Close() // idempotent

	tbl := table.New("after-close", "post close table", []string{"k", "v"})
	tbl.SourceID = "s1"
	tbl.MustAppendRow("x", "y")
	if err := lake.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if _, combined := old.Retrieve("post close table", 10, datalake.KindTable); containsID(combined, "table:after-close") {
		t.Fatal("closed indexer still received the ingest")
	}
	if _, combined := replacement.Retrieve("post close table", 10, datalake.KindTable); !containsID(combined, "table:after-close") {
		t.Fatal("live indexer on the same lake missed the ingest")
	}
}

// TestRetrieveKindFiltered checks that Retrieve and RetrieveFamily honor
// kind restrictions: every returned instance is of a requested kind.
func TestRetrieveKindFiltered(t *testing.T) {
	_, ix := liveIndexer(t, 2)
	query := "tommy bolt 1954 u.s. open (golf) money 570"

	for _, kinds := range [][]datalake.Kind{
		{datalake.KindTable},
		{datalake.KindTuple},
		{datalake.KindText},
		{datalake.KindTable, datalake.KindText},
	} {
		allowed := make(map[datalake.Kind]bool)
		for _, k := range kinds {
			allowed[k] = true
		}
		_, combined := ix.Retrieve(query, 10, kinds...)
		if len(combined) == 0 {
			t.Fatalf("kinds %v: no results", kinds)
		}
		for _, id := range combined {
			k, ok := datalake.KindOf(id)
			if !ok || !allowed[k] {
				t.Errorf("kinds %v: result %q outside requested kinds", kinds, id)
			}
		}
		for _, family := range []string{"bm25", "vector"} {
			for _, id := range ix.RetrieveFamily(query, family, 10, kinds...) {
				k, ok := datalake.KindOf(id)
				if !ok || !allowed[k] {
					t.Errorf("family %s kinds %v: result %q outside requested kinds", family, kinds, id)
				}
			}
		}
	}
	if got := ix.RetrieveFamily(query, "no-such-family", 10); got != nil {
		t.Fatalf("unknown family returned %v, want nil", got)
	}
}

// TestShardedRetrievalAgreesOnTop checks that sharding the indexes does not
// lose the relevant instance: the known-best hit for an exact-content query
// is retrieved first under both layouts.
func TestShardedRetrievalAgreesOnTop(t *testing.T) {
	_, unsharded := liveIndexer(t, 1)
	_, sharded := liveIndexer(t, 4)
	queries := []string{
		"tommy bolt money 570 1954 u.s. open (golf)",
		"ben hogan total 287 1959 u.s. open (golf)",
		"climate of dover kansas record high july",
	}
	for _, q := range queries {
		_, a := unsharded.Retrieve(q, 5)
		_, b := sharded.Retrieve(q, 5)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("query %q: empty results (%d vs %d)", q, len(a), len(b))
		}
		if a[0] != b[0] {
			t.Errorf("query %q: top hit differs: unsharded %q vs sharded %q", q, a[0], b[0])
		}
	}
}

// TestConcurrentIngestAndQuery runs live ingestion against concurrent
// retrieval and full verification; run under -race it proves the pipeline
// serves reads during writes.
func TestConcurrentIngestAndQuery(t *testing.T) {
	lake := smallLake(t)
	cfg := DefaultIndexerConfig(1)
	cfg.Shards = 3
	ix, err := BuildIndexer(lake, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := pipelineOver(t, lake, ix)

	const ingested = 40
	base := lake.Version()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := golfClaimObject()
			for {
				select {
				case <-stop:
					return
				default:
					ix.Retrieve("tommy bolt money", 10)
					if _, err := p.VerifyCtx(context.Background(), g, datalake.KindTable); err != nil {
						t.Errorf("verify during ingest: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < ingested; i++ {
			tbl := table.New(fmt.Sprintf("live%d", i), fmt.Sprintf("live table %d", i), []string{"k", "v"})
			tbl.SourceID = "s1"
			tbl.MustAppendRow(fmt.Sprintf("key%d", i), fmt.Sprintf("value%d", i))
			if err := lake.AddTable(tbl); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
		close(stop)
	}()
	wg.Wait()

	if v := lake.Version(); v != base+ingested {
		t.Fatalf("lake version = %d, want %d", v, base+ingested)
	}
	_, combined := ix.Retrieve("live table 39 key39 value39", 10, datalake.KindTable)
	if !containsID(combined, "table:live39") {
		t.Fatalf("last concurrently ingested table not retrieved: %v", combined)
	}
}

// TestBatchIngestIndexed checks the pipelined batch path end to end: a
// mixed AddBatch returns only after every item is applied by the per-shard
// appliers, so each one is immediately retrievable, and per-item failures
// do not disturb the indexed survivors.
func TestBatchIngestIndexed(t *testing.T) {
	lake, ix := liveIndexer(t, 3)

	tbl := table.New("batch-t1", "1971 open championship", []string{"player", "prize"})
	tbl.SourceID = "s1"
	tbl.MustAppendRow("lee trevino", "5500")
	dup := table.New("batch-t1", "dup", []string{"a"})
	results, err := lake.AddBatch([]datalake.BatchItem{
		{Table: tbl},
		{Doc: &doc.Document{ID: "batch-d1", Title: "Lee Trevino", Text: "Lee Trevino won the 1971 open championship.", SourceID: "s2"}},
		{Triple: &kg.Triple{Subject: "lee trevino", Predicate: "nickname", Object: "supermex", SourceID: "s1"}},
		{Table: dup},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results[:3] {
		if res.Err != nil {
			t.Fatalf("item %d rejected: %v", i, res.Err)
		}
	}
	if results[3].Err == nil {
		t.Fatal("duplicate batch item accepted")
	}

	for _, tc := range []struct {
		query string
		kind  datalake.Kind
		want  string
	}{
		{"1971 open championship lee trevino", datalake.KindTable, "table:batch-t1"},
		{"lee trevino prize 5500", datalake.KindTuple, "tuple:batch-t1#0"},
		{"lee trevino won the 1971 open championship", datalake.KindText, "text:batch-d1"},
		{"lee trevino nickname supermex", datalake.KindEntity, "entity:lee trevino"},
	} {
		if _, combined := ix.Retrieve(tc.query, 10, tc.kind); !containsID(combined, tc.want) {
			t.Fatalf("batch-ingested %s not retrieved: %v", tc.want, combined)
		}
	}
}

// TestEmptySubjectTripleDoesNotPanic is a regression test: a triple with an
// empty subject must flow through the per-shard appliers like any other
// entity event (the graph accepts every triple), not crash the applier.
func TestEmptySubjectTripleDoesNotPanic(t *testing.T) {
	lake, ix := liveIndexer(t, 2)
	defer ix.Close()
	if err := lake.AddTriple(kg.Triple{Subject: "", Predicate: "p", Object: "o"}); err != nil {
		t.Fatalf("empty-subject AddTriple: %v", err)
	}
	// The lake (and its appliers) must still be functional afterwards.
	if err := lake.AddTriple(kg.Triple{Subject: "after", Predicate: "p", Object: "o"}); err != nil {
		t.Fatal(err)
	}
	if _, combined := ix.Retrieve("after p o", 10, datalake.KindEntity); !containsID(combined, "entity:after") {
		t.Fatalf("appliers dead after empty-subject triple: %v", combined)
	}
}

// pipelineOver assembles a pipeline over a pre-built indexer (buildPipeline
// builds its own).
func pipelineOver(t *testing.T, lake *datalake.Lake, ix *Indexer) *Pipeline {
	t.Helper()
	registry := rerank.NewRegistry(rerank.NewColBERT(ix.Embedder(), 128))
	agent := verify.NewAgent(verify.NewExactVerifier())
	p, err := NewPipeline(lake, ix, registry, agent, provenance.NewStore(), nil, DefaultPipelineConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}
