package verifai

import (
	"context"
	"testing"
)

// TestLiveIngestEndToEnd checks the public live-lake API: instances
// ingested through System.AddTable/AddDocument/AddTriple after NewSystem
// are retrievable and verifiable without rebuilding, and each ingestion
// bumps the lake version.
func TestLiveIngestEndToEnd(t *testing.T) {
	lake := caseLake(t)
	sys, err := NewSystem(lake, noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	base := sys.LakeVersion()

	// A claim about a table that does not exist yet.
	claimText := "In 1962 open championship, the prize for arnold palmer was 1400."
	report, err := sys.VerifyClaimCtx(context.Background(), "pre-ingest", mustParseClaim(t, claimText))
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict == Verified {
		t.Fatalf("claim verified before its evidence exists (verdict %v)", report.Verdict)
	}

	tbl := NewTable("open1962", "1962 open championship", []string{"player", "prize"})
	tbl.SourceID = "cases"
	tbl.MustAppendRow("arnold palmer", "1400")
	tbl.MustAppendRow("kel nagle", "750")
	if err := sys.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	if got := sys.LakeVersion(); got != base+1 {
		t.Fatalf("lake version = %d after AddTable, want %d", got, base+1)
	}

	report, err = sys.VerifyClaimCtx(context.Background(), "post-ingest", mustParseClaim(t, claimText))
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Verified {
		t.Fatalf("verdict = %v after ingesting evidence, want Verified", report.Verdict)
	}
	found := false
	for _, ev := range report.Evidence {
		if ev.Instance.ID == "table:open1962" {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested table missing from evidence: %+v", report.Evidence)
	}

	// Documents and triples flow through the same live path.
	if err := sys.AddDocument(&Document{
		ID: "palmer-bio", Title: "Arnold Palmer", SourceID: "cases",
		Text: "Arnold Palmer won the 1962 open championship with a prize of 1400.",
	}); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddTriple(Triple{
		Subject: "arnold palmer", Predicate: "prize of 1962 open championship",
		Object: "1400", SourceID: "cases",
	}); err != nil {
		t.Fatal(err)
	}
	if got := sys.LakeVersion(); got != base+3 {
		t.Fatalf("lake version = %d, want %d", got, base+3)
	}
	ids := sys.Retrieve(NewClaimObject("q", mustParse(t, claimText)), 10, KindText, KindEntity)
	var haveDoc, haveEntity bool
	for _, id := range ids {
		switch id {
		case "text:palmer-bio":
			haveDoc = true
		case "entity:arnold palmer":
			haveEntity = true
		}
	}
	if !haveDoc || !haveEntity {
		t.Fatalf("live document/entity not retrieved (doc=%v entity=%v): %v", haveDoc, haveEntity, ids)
	}

	// Duplicate ingestion is rejected without disturbing the version.
	if err := sys.AddTable(tbl); err == nil {
		t.Fatal("duplicate AddTable succeeded, want error")
	}
	if got := sys.LakeVersion(); got != base+3 {
		t.Fatalf("lake version = %d after rejected duplicate, want %d", got, base+3)
	}
}

func mustParse(t *testing.T, text string) Claim {
	t.Helper()
	c, err := ParseClaim(text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBatchIngestFlushClose checks the public pipelined batch API:
// System.AddBatch commits a mixed batch that is verifiable when the call
// returns, Flush reports the applied watermark, and Close rejects further
// writes while keeping the system queryable.
func TestBatchIngestFlushClose(t *testing.T) {
	lake := caseLake(t)
	sys, err := NewSystem(lake, noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	base := sys.LakeVersion()

	tbl := NewTable("open1971", "1971 open championship", []string{"player", "prize"})
	tbl.SourceID = "cases"
	tbl.MustAppendRow("lee trevino", "5500")
	results, err := sys.AddBatch([]BatchItem{
		{Table: tbl},
		{Doc: &Document{ID: "trevino-bio", Title: "Lee Trevino", SourceID: "cases",
			Text: "Lee Trevino won the 1971 open championship."}},
		{Triple: &Triple{Subject: "lee trevino", Predicate: "nickname", Object: "supermex", SourceID: "cases"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch item %d rejected: %v", i, res.Err)
		}
		if res.Version != base+uint64(i)+1 {
			t.Fatalf("batch item %d version = %d, want %d", i, res.Version, base+uint64(i)+1)
		}
	}
	if got := sys.LakeVersion(); got != base+3 {
		t.Fatalf("lake version = %d after batch, want %d", got, base+3)
	}

	// Applied when AddBatch returns: verify immediately.
	report, err := sys.VerifyClaimCtx(context.Background(), "batch", mustParseClaim(t, "In 1971 open championship, the prize for lee trevino was 5500."))
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Verified {
		t.Fatalf("verdict = %v against batch-ingested table, want Verified", report.Verdict)
	}

	watermark, err := sys.Flush()
	if err != nil {
		t.Fatalf("Flush error: %v", err)
	}
	if watermark != base+3 {
		t.Fatalf("Flush watermark = %d, want %d", watermark, base+3)
	}

	if err := sys.Close(); err != nil {
		t.Fatalf("Close error: %v", err)
	}
	if err := sys.AddTable(NewTable("late", "late", []string{"a"})); err == nil {
		t.Fatal("AddTable after Close succeeded, want error")
	}
	if _, err := sys.AddBatch([]BatchItem{{Doc: &Document{ID: "late-doc", Text: "x"}}}); err == nil {
		t.Fatal("AddBatch after Close succeeded, want error")
	}
	// Still queryable on the final state.
	report, err = sys.VerifyClaimCtx(context.Background(), "post-close", mustParseClaim(t, "In 1971 open championship, the prize for lee trevino was 5500."))
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != Verified {
		t.Fatalf("verdict = %v after Close, want Verified", report.Verdict)
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second Close error: %v", err)
	}
}
