// Claimverify reproduces Figure 4 of the paper against a full synthetic
// lake: the false golf prize-total claim is retrieved against thousands of
// tables, the 1954 U.S. Open leaderboard refutes it via an aggregation, the
// 1959 champions table is recognized as not related, and the complete
// provenance of the decision is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		nTables  = flag.Int("tables", 1000, "distractor tables in the lake")
		seed     = flag.Uint64("seed", 7, "deterministic seed")
		showProv = flag.Bool("provenance", false, "dump the full provenance record as JSON")
	)
	flag.Parse()

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumTables = *nTables
	cfg.NumTexts = 200
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := corpus.AddCaseData(); err != nil {
		log.Fatal(err)
	}

	sys, err := verifai.NewSystem(corpus.Lake, verifai.ExactOptions(*seed))
	if err != nil {
		log.Fatal(err)
	}

	claim := workload.GolfClaim()
	fmt.Printf("Claim: %s\n", claim.Text)
	fmt.Println("(Ground truth: a false claim that should be Refuted)")
	fmt.Println()

	report, err := sys.VerifyClaimCtx(context.Background(), "fig4", claim)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Retrieved evidence and verification:")
	for _, ev := range report.Evidence {
		fmt.Printf("  %-28s %-12v %s\n", ev.Instance.ID, ev.Result.Verdict, ev.Result.Explanation)
	}
	fmt.Printf("\nVerification result: %v (confidence %.2f)\n", report.Verdict, report.Confidence)

	if *showProv {
		fmt.Println("\n--- provenance record ---")
		if err := sys.Provenance().WriteJSON(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
