package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"strings"

	"repro/internal/claims"
	"repro/internal/datalake"
	"repro/internal/doc"
	"repro/internal/experiments"
	"repro/internal/kg"
	"repro/internal/llm"
	"repro/internal/server"
	"repro/internal/table"
	"repro/internal/verify"
	"repro/internal/workload"
)

// The lake is fixed: every run serves the same generated corpus, the scale
// of the repository's recorded baseline. The seed argument chooses the
// workload drawn from it, never the lake, so the verdict prefix below is
// the same on every seed.
const (
	corpusSeed   = 1
	corpusTables = 1500
	corpusTexts  = 800

	// Pool sizes: distinct claims and tuples available to a run. A cold run
	// never repeats an object, so the pools must outlast the fastest run
	// the program is likely to reach.
	poolClaims = 8000
	poolTuples = 2000

	// The fixed prefix every run verifies first, over HTTP and through the
	// library, for the digest and verdict_accuracy.
	prefixClaims = 60
	prefixTuples = 15

	// tupleEvery places one tuple after every four claims.
	tupleEvery = 5
)

func corpusConfig() workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.NumTables = corpusTables
	cfg.NumTexts = corpusTexts
	return cfg
}

type opKind int

const (
	opClaim opKind = iota
	opTuple
)

func (k opKind) String() string {
	if k == opTuple {
		return "tuple"
	}
	return "claim"
}

// request is one verification the benchmark sends: a claim in the template
// language or an imputed tuple, with its ground-truth verdict.
type request struct {
	kind  opKind
	id    string
	claim claims.Claim
	tuple table.Tuple
	attr  string
	want  verify.Verdict
}

// object is the generated object exactly as the HTTP handlers build it
// from the request body, so library and HTTP paths verify the same thing.
func (r request) object() verify.Generated {
	if r.kind == opTuple {
		return verify.NewTupleObject(r.id, r.tuple, r.attr)
	}
	return verify.NewClaimObject(r.id, r.claim)
}

// kinds are the evidence kinds of the paper's setting: tables for claims,
// tuples and texts for tuples; sorted, as the pipeline normalizes them.
func (r request) kinds() []datalake.Kind {
	if r.kind == opTuple {
		return []datalake.Kind{datalake.KindTuple, datalake.KindText}
	}
	return []datalake.Kind{datalake.KindTable}
}

// httpCall returns the endpoint path and JSON body of the request.
func (r request) httpCall() (string, any) {
	if r.kind == opTuple {
		return "/v1/verify/tuple", server.TupleRequest{
			ID: r.id, Caption: r.tuple.Caption, Columns: r.tuple.Columns, Values: r.tuple.Values,
			Attr: r.attr, Kinds: []string{"tuple", "text"},
		}
	}
	return "/v1/verify/claim", server.ClaimRequest{ID: r.id, Text: r.claim.Text, Kinds: []string{"table"}}
}

// pools holds the seed-independent supply of distinct requests.
type pools struct {
	claims []request
	tuples []request
}

// buildPools derives the request pools from the corpus: labeled claims from
// Corpus.ClaimTasks and tuples imputed by the simulated generator from
// Corpus.TupleTasks, each distinct in its query text.
func buildPools(c *workload.Corpus) (pools, error) {
	var p pools
	seen := make(map[string]bool)
	cts, err := c.ClaimTasks(poolClaims)
	if err != nil {
		return p, fmt.Errorf("claim pool: %w", err)
	}
	for _, ct := range cts {
		parsed, err := claims.Parse(ct.Claim.Text)
		if err != nil {
			return p, fmt.Errorf("claim pool: %w", err)
		}
		if seen[parsed.Text] {
			continue
		}
		seen[parsed.Text] = true
		want := verify.Refuted
		if ct.Label {
			want = verify.Verified
		}
		p.claims = append(p.claims, request{kind: opClaim, id: "c" + strconv.Itoa(len(p.claims)), claim: parsed, want: want})
	}
	tts, err := c.TupleTasks(poolTuples)
	if err != nil {
		return p, fmt.Errorf("tuple pool: %w", err)
	}
	env := &experiments.Env{Corpus: c, Generator: llm.NewGenerator(corpusSeed)}
	for _, tt := range tts {
		imputed, full := env.Impute(tt)
		tp := table.Tuple{Caption: full.Caption, Columns: full.Columns, Values: full.Values}
		r := request{kind: opTuple, id: "t" + strconv.Itoa(len(p.tuples)), tuple: tp, attr: tt.MaskedAttr(), want: verify.Refuted}
		if imputed == tt.TrueValue {
			r.want = verify.Verified
		}
		q := r.object().Query()
		if seen[q] {
			continue
		}
		seen[q] = true
		p.tuples = append(p.tuples, r)
	}
	if len(p.claims) < prefixClaims*2 || len(p.tuples) < prefixTuples*2 {
		return p, fmt.Errorf("pools too small: %d claims, %d tuples", len(p.claims), len(p.tuples))
	}
	return p, nil
}

// interleave merges claims and tuples four to one, until either runs out.
func interleave(cs, ts []request) []request {
	out := make([]request, 0, len(cs)+len(ts))
	for len(cs) > 0 || len(ts) > 0 {
		if (len(out)+1)%tupleEvery == 0 {
			if len(ts) == 0 {
				break
			}
			out = append(out, ts[0])
			ts = ts[1:]
			continue
		}
		if len(cs) == 0 {
			break
		}
		out = append(out, cs[0])
		cs = cs[1:]
	}
	return out
}

// prefix is the fixed verdict prefix, identical on every seed.
func (p pools) prefix() []request {
	return interleave(p.claims[:prefixClaims], p.tuples[:prefixTuples])
}

// shuffled returns the pool beyond the prefix in a seed-chosen order.
func (p pools) shuffled(seed uint64) (cs, ts []request) {
	rng := rand.New(rand.NewPCG(seed, 1))
	cs = append([]request(nil), p.claims[prefixClaims:]...)
	ts = append([]request(nil), p.tuples[prefixTuples:]...)
	rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return cs, ts
}

// coldSequence is every non-prefix object once, in a seed-chosen order,
// four claims to one tuple.
func (p pools) coldSequence(seed uint64) []request {
	cs, ts := p.shuffled(seed)
	return interleave(cs, ts)
}

// workingSet is n seed-chosen non-prefix objects, four claims to one tuple.
func (p pools) workingSet(seed uint64, n int) []request {
	cs, ts := p.shuffled(seed)
	nt := n / tupleEvery
	return interleave(cs[:n-nt], ts[:nt])
}

// batch is one ingest batch the writer sends, with the read-your-writes
// probe its tables call for (nil when the batch holds no table).
type batch struct {
	items []server.IngestBatchItem
	probe *request
}

// batchMix says which items the writer's batches carry: every tableEvery-th
// batch holds tables, every docEvery-th of the others documents, and the
// rest triples (0 leaves a kind out). A fixed cadence keeps the rate at
// which writes invalidate cached claims and tuples the same on every seed.
type batchMix struct {
	size                 int
	tableEvery, docEvery int
}

// batchGen generates the writer's batches. IDs carry the seed and the
// batch number, so no batch collides with the corpus or another batch; the
// indexed text of batch i is the same on every seed, because new documents
// and tables compete with the lake's own in retrieval, and text that
// changed with the seed would move read latencies between seeds. The seed
// chooses the table values and documents' word order.
type batchGen struct {
	seed uint64
	mix  batchMix
	rng  *rand.Rand
	n    int
}

func newBatchGen(seed uint64, mix batchMix) *batchGen {
	return &batchGen{seed: seed, mix: mix, rng: rand.New(rand.NewPCG(seed, 2))}
}

var noteWords = strings.Fields(`harbor ledger orchard signal meadow copper lantern
	archive summit canal quarry beacon valley timber relay garden station
	furnace bridge thicket granary compass pavilion estuary`)

// next returns the generator's next batch.
func (g *batchGen) next() batch {
	var b batch
	i := g.n
	g.n++
	tables := g.mix.tableEvery > 0 && i%g.mix.tableEvery == 0
	docs := !tables && g.mix.docEvery > 0 && i%g.mix.docEvery == 0
	for j := 0; j < g.mix.size; j++ {
		tag := fmt.Sprintf("b%dk%d", i, j)
		id := fmt.Sprintf("perfbench-s%d-%s", g.seed, tag)
		switch {
		case tables:
			caption := "perfbench standings " + tag
			var rows [][]string
			for r := 0; r < 4; r++ {
				rows = append(rows, []string{
					fmt.Sprintf("player %sr%d", tag, r),
					strconv.Itoa(10 + g.rng.IntN(90)),
					noteWords[(i+r)%len(noteWords)] + " club",
				})
			}
			b.items = append(b.items, server.IngestBatchItem{
				Type: "table", ID: id, Caption: caption, Columns: []string{"player", "points", "club"}, Rows: rows,
				SourceID: workload.SourceTables,
			})
			if b.probe == nil {
				c := claims.Claim{Context: caption, Entities: []string{rows[0][0]}, Attribute: "points", Op: claims.OpLookup, Value: rows[0][1]}
				c.Render()
				b.probe = &request{kind: opClaim, id: "probe-" + id, claim: c, want: verify.Verified}
			}
		case docs:
			words := make([]string, 40)
			for w := range words {
				words[w] = noteWords[(i*7+w*w)%len(noteWords)]
			}
			g.rng.Shuffle(len(words), func(a, b int) { words[a], words[b] = words[b], words[a] })
			b.items = append(b.items, server.IngestBatchItem{
				Type: "document", ID: id, Title: "perfbench note " + tag,
				Text: strings.Join(words, " ") + ".", SourceID: workload.SourceTexts,
			})
		default:
			b.items = append(b.items, server.IngestBatchItem{
				Type: "triple", Subject: fmt.Sprintf("perfbench entity s%d %s", g.seed, tag), Predicate: "located near",
				Object: noteWords[i%len(noteWords)], SourceID: workload.SourceKG,
			})
		}
	}
	return b
}

// toBatchItem builds the lake value an ingest item describes, as the
// server's batch handler does.
func toBatchItem(it server.IngestBatchItem) datalake.BatchItem {
	switch it.Type {
	case "table":
		t := table.New(it.ID, it.Caption, it.Columns)
		t.SourceID = it.SourceID
		for _, row := range it.Rows {
			_ = t.AppendRow(row) // generated rows always match the columns
		}
		return datalake.BatchItem{Table: t}
	case "document":
		return datalake.BatchItem{Doc: &doc.Document{ID: it.ID, Title: it.Title, Text: it.Text, SourceID: it.SourceID}}
	default:
		return datalake.BatchItem{Triple: &kg.Triple{Subject: it.Subject, Predicate: it.Predicate, Object: it.Object, SourceID: it.SourceID}}
	}
}
