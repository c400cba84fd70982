// Crossmodal demonstrates the paper's Section 5 "Cross-Modal Verification"
// direction: the same generated tuple is verified independently against
// every modality of the lake — counterpart tuples, entity text pages, and
// knowledge-graph triples — and the per-modality verdicts are compared.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		nTables = flag.Int("tables", 400, "lake tables")
		nTasks  = flag.Int("tasks", 6, "tuples to verify")
		seed    = flag.Uint64("seed", 11, "deterministic seed")
	)
	flag.Parse()

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumTables = *nTables
	cfg.NumTexts = *nTables / 2
	cfg.KGTableFraction = 1 // export every table's tuples as KG triples
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := corpus.Lake.Stats()
	fmt.Printf("lake: %d tables, %d texts, %d KG triples over %d entities\n\n",
		stats.Tables, stats.Docs, stats.Triples, stats.Entities)

	sys, err := verifai.NewSystem(corpus.Lake, verifai.ExactOptions(*seed))
	if err != nil {
		log.Fatal(err)
	}

	tasks, err := corpus.TupleTasks(*nTasks)
	if err != nil {
		log.Fatal(err)
	}

	modalities := []struct {
		name string
		kind verifai.Kind
	}{
		{"tuples  ", verifai.KindTuple},
		{"texts   ", verifai.KindText},
		{"entities", verifai.KindEntity},
	}

	for i, task := range tasks {
		// Alternate between verifying the true value and a corrupted one.
		tuple := task.Tuple
		label := "true value"
		if i%2 == 1 {
			tuple = tuple.WithValue(task.MaskedAttr(), task.TrueValue+" (fabricated)")
			label = "fabricated value"
		}
		fmt.Printf("tuple %d (%s): %s | verify %s\n", i+1, label, task.Entity(), task.MaskedAttr())
		for _, m := range modalities {
			rep, err := sys.VerifyImputedTupleCtx(context.Background(), fmt.Sprintf("x%d-%v", i, m.kind), tuple, task.MaskedAttr(), m.kind)
			if err != nil {
				log.Fatal(err)
			}
			detail := "(no decisive evidence)"
			for _, ev := range rep.Evidence {
				if ev.Result.Verdict == rep.Verdict && rep.Verdict != verifai.NotRelated {
					detail = ev.Result.Explanation
					break
				}
			}
			fmt.Printf("    vs %s -> %-12v %s\n", m.name, rep.Verdict, detail)
		}
		fmt.Println()
	}
}
