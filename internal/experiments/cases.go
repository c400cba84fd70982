package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/verify"
	"repro/internal/workload"
)

// CaseOutcome is the result of one case-study verification.
type CaseOutcome struct {
	// Description says what was generated and what should happen.
	Description string
	// Generated is the serialized generated data.
	Generated string
	// Verdict is the pipeline's final verdict.
	Verdict verify.Verdict
	// Expected is the verdict the paper's figure shows.
	Expected verify.Verdict
	// Explanation is the leading decisive evidence's explanation.
	Explanation string
	// EvidenceIDs are the instance IDs used as evidence, in rank order.
	EvidenceIDs []string
}

// Match reports whether the pipeline reproduced the figure's verdict.
func (c CaseOutcome) Match() bool { return c.Verdict == c.Expected }

// Figure1Result reproduces the Figure 1 case studies.
type Figure1Result struct {
	// TupleCorrect: the first Ohio tuple imputed correctly — VerifAI finds
	// the counterpart tuple and verifies it.
	TupleCorrect CaseOutcome
	// TupleWrong: the third tuple imputed incorrectly — VerifAI refutes it.
	TupleWrong CaseOutcome
	// TextClaim: the Meagan Good / Stomp the Yard answer with the wrong
	// role — refuted by both a tuple and a text file.
	TextClaim CaseOutcome
}

// Figure1 runs the Figure 1 cases through the full pipeline (noise-free
// verifier: the figures demonstrate the mechanism, not aggregate accuracy).
func (e *Env) Figure1() (Figure1Result, error) {
	p, err := e.ExactPipeline()
	if err != nil {
		return Figure1Result{}, err
	}
	ohio := workload.OhioDistrictsTable()
	var res Figure1Result

	// Case 1: incumbent of the 1st district imputed correctly.
	t0, _ := ohio.TupleAt(0)
	g0 := verify.NewTupleObject("fig1:ohio-1", t0, "incumbent")
	rep0, err := p.VerifyCtx(context.TODO(), g0, datalake.KindTuple, datalake.KindText)
	if err != nil {
		return res, fmt.Errorf("experiments: figure1 case1: %w", err)
	}
	res.TupleCorrect = outcomeFrom("Ohio 1st district incumbent imputed as steve chabot (correct)",
		g0.Describe(), rep0, verify.Verified)

	// Case 2: incumbent of the 3rd district imputed incorrectly.
	t2, _ := ohio.TupleAt(2)
	wrong := t2.WithValue("incumbent", "dave hobson")
	g2 := verify.NewTupleObject("fig1:ohio-3", wrong, "incumbent")
	rep2, err := p.VerifyCtx(context.TODO(), g2, datalake.KindTuple, datalake.KindText)
	if err != nil {
		return res, fmt.Errorf("experiments: figure1 case2: %w", err)
	}
	res.TupleWrong = outcomeFrom("Ohio 3rd district incumbent imputed as dave hobson (incorrect)",
		g2.Describe(), rep2, verify.Refuted)

	// Case 3: generated text answers the Stomp the Yard question with the
	// wrong role; the filmography table and the entity page both refute it.
	claim := workload.StompTheYardClaim()
	claim.Value = "coco" // the generator's wrong answer
	claim.Render()
	g3 := verify.NewClaimObject("fig1:stomp-the-yard", claim)
	rep3, err := p.VerifyCtx(context.TODO(), g3, datalake.KindTable, datalake.KindText)
	if err != nil {
		return res, fmt.Errorf("experiments: figure1 case3: %w", err)
	}
	res.TextClaim = outcomeFrom("Meagan Good's role in Stomp the Yard generated as coco (incorrect)",
		g3.Describe(), rep3, verify.Refuted)
	return res, nil
}

// Figure4Result reproduces the Figure 4 case study: the golf prize-total
// claim is refuted by the 1954 table (via aggregation) while the 1959 table
// is recognized as not related.
type Figure4Result struct {
	ClaimText string
	// Final is the end-to-end outcome (expected: Refuted).
	Final CaseOutcome
	// E1Verdict is the verdict on the 1954 table (expected: Refuted).
	E1Verdict verify.Verdict
	// E1Explanation mirrors the figure's explanation (the per-player prizes
	// and the true total).
	E1Explanation string
	// E2Verdict is the verdict on the 1959 table (expected: NotRelated).
	E2Verdict verify.Verdict
	// E1Retrieved / E2Retrieved report whether the pipeline's evidence set
	// contained the two tables.
	E1Retrieved bool
	E2Retrieved bool
}

// Figure4 runs the golf claim end to end.
func (e *Env) Figure4() (Figure4Result, error) {
	p, err := e.ExactPipeline()
	if err != nil {
		return Figure4Result{}, err
	}
	claim := workload.GolfClaim()
	g := verify.NewClaimObject("fig4:golf", claim)
	rep, err := p.VerifyCtx(context.TODO(), g, datalake.KindTable)
	if err != nil {
		return Figure4Result{}, fmt.Errorf("experiments: figure4: %w", err)
	}
	res := Figure4Result{
		ClaimText: claim.Text,
		Final:     outcomeFrom("1954 U.S. Open prize-total claim (false)", g.Describe(), rep, verify.Refuted),
	}
	e1 := datalake.TableInstanceID(workload.USOpen1954Table().ID)
	e2 := datalake.TableInstanceID(workload.USOpen1959Table().ID)
	for _, ev := range rep.Evidence {
		switch ev.Instance.ID {
		case e1:
			res.E1Retrieved = true
			res.E1Verdict = ev.Result.Verdict
			res.E1Explanation = ev.Result.Explanation
		case e2:
			res.E2Retrieved = true
			res.E2Verdict = ev.Result.Verdict
		}
	}
	return res, nil
}

// outcomeFrom flattens a pipeline report into a CaseOutcome. The
// explanation is taken from the first evidence whose verdict matches the
// final one (the decisive evidence).
func outcomeFrom(desc, generated string, rep core.Report, expected verify.Verdict) CaseOutcome {
	out := CaseOutcome{
		Description: desc,
		Generated:   generated,
		Verdict:     rep.Verdict,
		Expected:    expected,
	}
	for _, ev := range rep.Evidence {
		out.EvidenceIDs = append(out.EvidenceIDs, ev.Instance.ID)
		if out.Explanation == "" && ev.Result.Verdict == rep.Verdict {
			out.Explanation = ev.Result.Explanation
		}
	}
	return out
}
