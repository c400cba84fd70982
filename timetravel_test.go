package verifai

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestPinnedVerdictReproducible is the time-travel reproducibility
// property: pin a snapshot, verify a claim against it, then churn the
// lake with a thousand mixed writes and re-weight the claim's source —
// and the pinned verdict must come back byte-identical, first from the
// result cache (the pin is part of the key, so the entry survives every
// head invalidation) and again when recomputed from the frozen shards.
func TestPinnedVerdictReproducible(t *testing.T) {
	sys, err := NewSystem(caseLake(t), noiseFreeOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	claim := mustParseClaim(t, "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.")
	// The case tables carry SourceID "paper-cases"; weight it explicitly so
	// the pin must capture a live trust override, not just a lake prior.
	sys.SetSourceTrust("paper-cases", 0.9)

	pin, err := sys.PinSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if pin != sys.LakeVersion() {
		t.Fatalf("pinned version %d, want lake head %d", pin, sys.LakeVersion())
	}

	// Baseline pinned read: computed from the frozen shards, cached under
	// the pin, stamped with it.
	rep0, err := sys.Verify(ctx, NewClaimObject("repro", claim), pin)
	if err != nil {
		t.Fatal(err)
	}
	if rep0.AsOfVersion != pin {
		t.Fatalf("report AsOfVersion = %d, want %d", rep0.AsOfVersion, pin)
	}
	if rep0.Verdict != Refuted {
		t.Fatalf("pinned verdict = %v, want Refuted", rep0.Verdict)
	}
	for _, ev := range rep0.Evidence {
		if ev.SourceTrust != 0.9 {
			t.Fatalf("pinned evidence trust = %v, want the pin-time override 0.9", ev.SourceTrust)
		}
	}

	// Churn: a thousand mixed writes, several of them deliberately about
	// the same tournament, plus a trust collapse for the claim's source.
	for i := 0; i < 1000; i++ {
		switch i % 3 {
		case 0:
			if err := sys.AddDocument(&Document{
				ID: fmt.Sprintf("churn-doc-%04d", i), Title: "churn", SourceID: "paper-cases",
				Text: fmt.Sprintf("In 1954 u.s. open (golf) retrospective %d, tommy bolt's cash prize was 960.", i),
			}); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := sys.AddTriple(Triple{
				Subject: fmt.Sprintf("churn-entity-%04d", i), Predicate: "cash prize",
				Object: "960", SourceID: "paper-cases",
			}); err != nil {
				t.Fatal(err)
			}
		default:
			tbl := NewTable(fmt.Sprintf("churn-table-%04d", i), "1954 u.s. open (golf) revised", []string{"player", "cash prize"})
			tbl.SourceID = "paper-cases"
			tbl.MustAppendRow("tommy bolt", "320")
			if err := sys.AddTable(tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	sys.SetSourceTrust("paper-cases", 0.05)

	// Head moved: a fresh head read sees the re-weighted trust.
	head, err := sys.VerifyClaimCtx(ctx, "head-after-churn", claim)
	if err != nil {
		t.Fatal(err)
	}
	if head.AsOfVersion != 0 {
		t.Fatalf("head report AsOfVersion = %d, want 0", head.AsOfVersion)
	}
	for _, ev := range head.Evidence {
		if ev.SourceTrust != 0.05 {
			t.Fatalf("head evidence trust = %v, want the live override 0.05", ev.SourceTrust)
		}
	}

	// Same request at the same pin: identical report, served by the result
	// cache — the pinned entry must survive 1000 invalidating writes.
	hitsBefore := sys.Stats().ResultCacheHits
	rep1, err := sys.Verify(ctx, NewClaimObject("repro", claim), pin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep0, rep1) {
		t.Fatalf("cached pinned report drifted:\n  first  %+v\n  second %+v", rep0, rep1)
	}
	if hits := sys.Stats().ResultCacheHits; hits != hitsBefore+1 {
		t.Fatalf("ResultCacheHits = %d after pinned re-verify, want %d (cache must serve the pinned entry)", hits, hitsBefore+1)
	}

	// New request ID at the same pin: a cache miss, recomputed end-to-end
	// from the frozen shards — still the same verdict, evidence, and
	// pin-time trust, differing only in request identity and lineage seq.
	rep2, err := sys.Verify(ctx, NewClaimObject("repro-recompute", claim), pin)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rep0, rep2
	a.Object.ID, b.Object.ID = "", ""
	a.ProvenanceSeq, b.ProvenanceSeq = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("recomputed pinned report drifted:\n  cached     %+v\n  recomputed %+v", a, b)
	}
}
