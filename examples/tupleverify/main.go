// Tupleverify reproduces the Figure 1(a) workflow end to end: a generative
// model imputes missing tuple values from the paper's prompt template, and
// VerifAI verifies each imputed value against the data lake, flagging the
// hallucinations.
//
// Run with -tables/-tasks to scale the synthetic lake.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro"
	"repro/internal/llm"
	"repro/internal/table"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		nTables = flag.Int("tables", 600, "lake tables")
		nTasks  = flag.Int("tasks", 8, "tuples to impute and verify")
		seed    = flag.Uint64("seed", 7, "deterministic seed")
	)
	flag.Parse()

	// Generate a synthetic multi-modal lake (TabFact/WikiTable-TURL style).
	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	cfg.NumTables = *nTables
	cfg.NumTexts = *nTables / 2
	corpus, err := workload.GenerateLake(cfg)
	if err != nil {
		log.Fatal(err)
	}
	stats := corpus.Lake.Stats()
	fmt.Printf("lake: %d tables / %d tuples / %d text files\n\n", stats.Tables, stats.Tuples, stats.Docs)

	sys, err := verifai.NewSystem(corpus.Lake, verifai.ExactOptions(*seed))
	if err != nil {
		log.Fatal(err)
	}

	// Sample tuple-completion tasks and let the simulated generator impute
	// the masked cells (it is right ~52% of the time, the paper's measured
	// no-evidence accuracy).
	tasks, err := corpus.TupleTasks(*nTasks)
	if err != nil {
		log.Fatal(err)
	}
	gen := llm.NewGenerator(*seed)

	correctCaught, wrongCaught := 0, 0
	for i, task := range tasks {
		tbl, _ := corpus.Lake.Table(task.TableID)

		// Show the paper's prompt template for the first task.
		if i == 0 {
			masked := tbl.Clone()
			masked.Rows[task.Row][task.MaskedCol] = table.Missing
			fmt.Println("--- prompt sent to the generator (paper's template) ---")
			fmt.Print(llm.TupleCompletionPrompt(masked))
			fmt.Println("--------------------------------------------------------")
		}

		imputed := gen.CompleteTuple(
			fmt.Sprintf("%s#%d#%s", task.TableID, task.Row, task.MaskedAttr()),
			task.TrueValue,
			tbl.Column(task.MaskedCol),
		)
		tuple := task.Tuple.WithValue(task.MaskedAttr(), imputed)

		report, err := sys.VerifyImputedTupleCtx(context.Background(), fmt.Sprintf("task-%d", i), tuple, task.MaskedAttr())
		if err != nil {
			log.Fatal(err)
		}

		truthful := imputed == task.TrueValue
		fmt.Printf("tuple %d: %s | imputed %s=%q (truth %q) -> %v\n",
			i+1, task.Entity(), task.MaskedAttr(), imputed, task.TrueValue, report.Verdict)
		if len(report.Evidence) > 0 {
			fmt.Printf("          top evidence: %s — %s\n",
				report.Evidence[0].Instance.ID, report.Evidence[0].Result.Explanation)
		}
		if truthful && report.Verdict == verifai.Verified {
			correctCaught++
		}
		if !truthful && report.Verdict == verifai.Refuted {
			wrongCaught++
		}
	}
	fmt.Printf("\nverification confirmed %d correct imputations and caught %d hallucinations out of %d tasks\n",
		correctCaught, wrongCaught, len(tasks))
}
