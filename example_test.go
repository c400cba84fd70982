package verifai_test

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

// Example reproduces the paper's Figure 4 case: a false claim about the
// 1954 U.S. Open prize total is refuted by the leaderboard table via an
// aggregation, while the 1959 champions table is recognized as unrelated.
func Example() {
	lake := verifai.NewLake()
	lake.AddSource(verifai.Source{ID: "web", Name: "web tables", TrustPrior: 0.8})
	for _, t := range []*verifai.Table{workload.USOpen1954Table(), workload.USOpen1959Table()} {
		t.SourceID = "web"
		if err := lake.AddTable(t); err != nil {
			log.Fatal(err)
		}
	}

	sys, err := verifai.NewSystem(lake, verifai.ExactOptions(42))
	if err != nil {
		log.Fatal(err)
	}

	claim, err := verifai.ParseClaim("In 1954 u.s. open (golf), the cash prize for tommy bolt, fred haas, and ben hogan was 960 in total.")
	if err != nil {
		log.Fatal(err)
	}
	report, err := sys.VerifyClaimCtx(context.Background(), "fig4", claim)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verdict:", report.Verdict)
	fmt.Println(report.Evidence[0].Result.Explanation)
	// Output:
	// verdict: Refuted
	// The money for tommy bolt, fred haas, and ben hogan was 570, 570, 570 respectively, so the sum is 1710, not 960.
}

// ExampleSystem_VerifyImputedTupleCtx shows the Figure 1(a) flow: a
// generated tuple with a wrong incumbent is refuted by the lake.
func ExampleSystem_VerifyImputedTupleCtx() {
	lake := verifai.NewLake()
	lake.AddSource(verifai.Source{ID: "web", Name: "web tables", TrustPrior: 0.8})
	ohio := workload.OhioDistrictsTable()
	ohio.SourceID = "web"
	if err := lake.AddTable(ohio); err != nil {
		log.Fatal(err)
	}

	sys, err := verifai.NewSystem(lake, verifai.ExactOptions(7))
	if err != nil {
		log.Fatal(err)
	}

	tp, _ := ohio.TupleAt(2) // ohio's 3rd congressional district
	imputed := tp.WithValue("incumbent", "dave hobson")
	report, err := sys.VerifyImputedTupleCtx(context.Background(), "fig1a", imputed, "incumbent")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verdict:", report.Verdict)
	fmt.Println(report.Evidence[0].Result.Explanation)
	// Output:
	// verdict: Refuted
	// The evidence tuple shows incumbent = mike turner, not dave hobson.
}
