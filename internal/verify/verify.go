// Package verify implements VerifAI's Verifier module: given a generated
// data object g and a retrieved data instance x, decide
// verify(g, x) → Verified | Refuted | NotRelated.
//
// Two verifier families are provided, matching Section 3.3 of the paper:
//
//   - LLMVerifier — the one-size-fits-all model (the paper uses ChatGPT).
//     It reasons over any (g, x) pair and is simulated with the calibrated
//     error profile measured in the paper: strong generalization and
//     relevance detection, weaker multi-row table arithmetic.
//   - Local models — PastaVerifier for (text, table) pairs (the paper's
//     PASTA) and TupleVerifier for (tuple, tuple) pairs (the paper's
//     fine-tuned RoBERTa). PASTA executes table operations exactly but is
//     binary-output and degrades on evidence unlike its training
//     distribution (irrelevant tables).
//
// An Agent (agent.go) picks the verifier for each pair, as in Figure 3.
package verify

import (
	"fmt"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/table"
)

// Verdict is the ternary outcome of verification, the paper's
// verify(g, x) → 0 | 1 | 2.
type Verdict int

const (
	// NotRelated means the evidence can neither support nor refute g.
	NotRelated Verdict = iota
	// Verified means the evidence supports g.
	Verified
	// Refuted means the evidence contradicts g.
	Refuted
)

// String implements fmt.Stringer.
func (v Verdict) String() string {
	switch v {
	case Verified:
		return "Verified"
	case Refuted:
		return "Refuted"
	case NotRelated:
		return "Not Related"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// fromOutcome converts a claims evaluation outcome to a Verdict.
func fromOutcome(o claims.Outcome) Verdict {
	switch o {
	case claims.Supports:
		return Verified
	case claims.Refutes:
		return Refuted
	default:
		return NotRelated
	}
}

// Kind classifies generated data objects.
type Kind int

const (
	// KindTuple is an imputed/generated tuple (Figure 1(a)).
	KindTuple Kind = iota
	// KindClaim is generated text carrying a factual claim (Figure 1(b)).
	KindClaim
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindTuple:
		return "tuple"
	case KindClaim:
		return "claim"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Generated is a generated data object g together with the verification
// metadata the paper's Remark in Section 2 calls for (which attribute of a
// tuple to verify).
type Generated struct {
	// Kind selects which payload is set.
	Kind Kind
	// Tuple is the generated tuple, complete (imputed value filled in).
	Tuple table.Tuple
	// Attr is the attribute under verification for tuple objects.
	Attr string
	// Claim is the structured claim for text objects.
	Claim claims.Claim
	// ID stably identifies the object for provenance and deterministic
	// error injection.
	ID string
}

// NewTupleObject wraps an imputed tuple for verification of attr.
func NewTupleObject(id string, tp table.Tuple, attr string) Generated {
	return Generated{Kind: KindTuple, Tuple: tp, Attr: attr, ID: id}
}

// NewClaimObject wraps a textual claim for verification.
func NewClaimObject(id string, c claims.Claim) Generated {
	return Generated{Kind: KindClaim, Claim: c, ID: id}
}

// DefaultEvidenceKinds returns the evidence modalities an object of kind k
// is verified against when the caller names none — the paper's Section 4
// settings: tables for textual claims, tuples and texts for tuple
// completion. Nil (every indexed modality) for any other kind.
func DefaultEvidenceKinds(k Kind) []datalake.Kind {
	switch k {
	case KindClaim:
		return []datalake.Kind{datalake.KindTable}
	case KindTuple:
		return []datalake.Kind{datalake.KindTuple, datalake.KindText}
	default:
		return nil
	}
}

// Query serializes the object for retrieval (the query handed to the
// Indexer).
func (g Generated) Query() string {
	switch g.Kind {
	case KindTuple:
		return g.Tuple.SerializeForIndex()
	case KindClaim:
		return g.Claim.Text
	default:
		return ""
	}
}

// Describe renders the object for prompts and logs.
func (g Generated) Describe() string {
	switch g.Kind {
	case KindTuple:
		return fmt.Sprintf("tuple [%s] (verify attribute %q)", g.Tuple.String(), g.Attr)
	case KindClaim:
		return fmt.Sprintf("claim %q", g.Claim.Text)
	default:
		return "unknown generated object"
	}
}

// Result is one verifier decision.
type Result struct {
	// Verdict is the ternary decision.
	Verdict Verdict
	// Explanation is the human-readable justification, in the style of the
	// paper's Figure 4 ("Verification result: Refuted. Explanation: ...").
	Explanation string
	// Verifier names the model that produced the decision.
	Verifier string
	// EvidenceID is the lake instance the decision is based on.
	EvidenceID string
}

// Verifier decides verify(g, x) for the pair types it supports.
type Verifier interface {
	// Name identifies the verifier in results and provenance.
	Name() string
	// Supports reports whether the verifier handles this pair type.
	Supports(g Generated, evidenceKind datalake.Kind) bool
	// Verify decides the verdict for (g, evidence). It returns an error
	// only for malformed inputs (unsupported pair, unresolvable evidence),
	// never for "cannot decide" — that is the NotRelated verdict.
	Verify(g Generated, evidence datalake.Instance) (Result, error)
}
