// Quickstart: build a small multi-modal data lake, assemble a VerifAI
// system, and verify a generated claim against it — the Figure 4 scenario of
// the paper in ~50 lines of API use.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. Build a data lake: tables and a text file, each attributed to a
	// source (sources carry trust priors).
	lake := verifai.NewLake()
	lake.AddSource(verifai.Source{ID: "web-tables", Name: "scraped web tables", TrustPrior: 0.8})
	for _, t := range []*verifai.Table{
		workload.USOpen1954Table(), // Figure 4's evidence table E1
		workload.USOpen1959Table(), // Figure 4's evidence table E2
		workload.OhioDistrictsTable(),
		workload.FilmographyTable(),
	} {
		t.SourceID = "web-tables"
		if err := lake.AddTable(t); err != nil {
			log.Fatal(err)
		}
	}
	if err := lake.AddDocument(workload.MeaganGoodDoc()); err != nil {
		log.Fatal(err)
	}

	// 2. Assemble the system: this indexes the lake (BM25 + vectors) and
	// wires up the Reranker and the Verifier agent.
	sys, err := verifai.NewSystem(lake, verifai.ExactOptions(42))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Verify a generated claim. This is the false claim from Figure 4 of
	// the paper: each of the three players actually won 570, totaling 1710.
	claimText := "In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total."
	claim, err := verifai.ParseClaim(claimText)
	if err != nil {
		log.Fatal(err)
	}
	report, err := sys.VerifyClaimCtx(context.Background(), "fig4-claim", claim)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Claim: %s\n", claimText)
	fmt.Printf("Final verdict: %v (confidence %.2f)\n\n", report.Verdict, report.Confidence)
	for i, ev := range report.Evidence {
		fmt.Printf("Evidence %d: %s [%v by %s, source trust %.2f]\n",
			i+1, ev.Instance.ID, ev.Result.Verdict, ev.Result.Verifier, ev.SourceTrust)
		fmt.Printf("  %s\n", ev.Result.Explanation)
	}
}
