package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// TestPrefixDigest builds the real deployment, verifies the fixed prefix
// over HTTP with one client and with two, and through the library: the
// digests must agree with each other and with the recorded one.
func TestPrefixDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bench-scale deployment")
	}
	d, err := setup(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if err := d.addLibrary(); err != nil {
		t.Fatal(err)
	}
	p, err := buildPools(d.corpus)
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	pre := p.prefix()
	var digests []string
	for _, n := range []int{1, 2} {
		reps, errs := prefixHTTP(d.leaderURL, pre, n)
		if len(errs) > 0 {
			t.Fatalf("%d clients: %v", n, errs[0])
		}
		digests = append(digests, digest(reps))
		if got := accuracy(pre, reps); got != g.Correct || len(pre) != g.Total {
			t.Errorf("%d clients: %d of %d verdicts correct, recorded %d of %d", n, got, len(pre), g.Correct, g.Total)
		}
	}
	lib, err := prefixLibrary(d, pre, 2)
	if err != nil {
		t.Fatal(err)
	}
	digests = append(digests, digest(lib))
	for i, name := range []string{"HTTP, 1 client", "HTTP, 2 clients", "library"} {
		if digests[i] != g.Digest {
			t.Errorf("%s: digest %s, recorded %s", name, digests[i], g.Digest)
		}
	}
}

// TestInputsFromSeed checks that the seed chooses the workload and nothing
// else: the prefix is the same for every seed, and each seed's inputs are
// the same every time.
func TestInputsFromSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the bench-scale corpus")
	}
	corpus, err := workload.GenerateLake(corpusConfig())
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPools(corpus)
	if err != nil {
		t.Fatal(err)
	}
	ids := func(rs []request) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = r.id
		}
		return out
	}
	if a, b := ids(p.coldSequence(1)), ids(p.coldSequence(1)); !reflect.DeepEqual(a, b) {
		t.Error("seed 1 gave two different cold sequences")
	}
	if a, b := ids(p.coldSequence(1)), ids(p.coldSequence(2)); reflect.DeepEqual(a, b) {
		t.Error("seeds 1 and 2 gave the same cold sequence")
	}
	seen := make(map[string]bool)
	for _, r := range append(p.prefix(), p.coldSequence(3)...) {
		q := r.object().Query()
		if seen[q] {
			t.Fatalf("query %q repeats within the prefix and cold sequence", q)
		}
		seen[q] = true
	}
	gen1, gen2 := newBatchGen(5, probeMix), newBatchGen(5, probeMix)
	for i := 0; i < 50; i++ {
		if a, b := gen1.next(), gen2.next(); !reflect.DeepEqual(a, b) {
			t.Fatalf("batch %d differs between two generators of seed 5", i)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics and
// workloads this program reports in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		file []metric
		prog []metricDef
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.file), len(c.prog))
		}
		for i, m := range c.file {
			if p := c.prog[i]; m.Name != p.name || m.Unit != p.unit || m.Better != p.better {
				t.Errorf("metric %d: BENCHMARK.json %+v, program %+v", i, m, p)
			}
		}
	}
}
