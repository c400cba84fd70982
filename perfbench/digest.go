package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"strconv"

	"repro/internal/core"
	"repro/internal/server"
)

// canonReport is the order-independent content of one Report: what the
// pipeline decided and why, without ProvenanceSeq, which depends on the
// order requests arrive in.
type canonReport struct {
	id         string
	verdict    string
	confidence float64
	evidence   []canonEvidence
}

type canonEvidence struct {
	id, kind, verdict, explanation string
	score                          float64
}

func canonFromHTTP(r server.VerifyResponse) canonReport {
	c := canonReport{id: r.ID, verdict: r.Verdict, confidence: r.Confidence}
	for _, ev := range r.Evidence {
		c.evidence = append(c.evidence, canonEvidence{
			id: ev.InstanceID, kind: ev.Kind, verdict: ev.Verdict, explanation: ev.Explanation, score: ev.RerankScore,
		})
	}
	return c
}

func canonFromReport(r core.Report) canonReport {
	c := canonReport{id: r.Object.ID, verdict: r.Verdict.String(), confidence: r.Confidence}
	for _, ev := range r.Evidence {
		c.evidence = append(c.evidence, canonEvidence{
			id: ev.Instance.ID, kind: ev.Instance.Kind.String(), verdict: ev.Result.Verdict.String(),
			explanation: ev.Result.Explanation, score: ev.RerankScore,
		})
	}
	return c
}

// digest hashes reports in order. Floats are written in their shortest
// exact form, which JSON transport preserves, so the HTTP and library
// paths hash alike.
func digest(reps []canonReport) string {
	h := sha256.New()
	for _, r := range reps {
		field(h, r.id, r.verdict, strconv.FormatFloat(r.confidence, 'g', -1, 64), strconv.Itoa(len(r.evidence)))
		for _, ev := range r.evidence {
			field(h, ev.id, ev.kind, strconv.FormatFloat(ev.score, 'g', -1, 64), ev.verdict, ev.explanation)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// field writes length-prefixed strings, so no two report lists hash alike
// by shifting text between fields.
func field(h hash.Hash, parts ...string) {
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	h.Write([]byte{'\n'})
}

// accuracy counts the reports whose verdict matches the request's ground
// truth.
func accuracy(reqs []request, reps []canonReport) (correct int) {
	for i, r := range reqs {
		if reps[i].verdict == r.want.String() {
			correct++
		}
	}
	return correct
}

// golden is the recorded outcome of the verdict prefix. The prefix does
// not depend on the seed, so one record covers every seed; a change that
// means to alter verification results re-records it and says why.
type golden struct {
	Digest  string `json:"digest"`
	Correct int    `json:"correct"`
	Total   int    `json:"total"`
}

//go:embed golden.json
var goldenJSON []byte

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}
