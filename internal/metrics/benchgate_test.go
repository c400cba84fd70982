package metrics

import (
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkIngestThroughput/pipelined/writers=4-8         	      50	     87065 ns/op	     11487 docs/sec
BenchmarkIngestThroughput/pipelined/writers=4-8         	      50	     89000 ns/op	     11000 docs/sec
BenchmarkMixedIngestQuery-8   	      50	   1203456 ns/op	        12.5 ingests/op	   1100000 p50-ns	   2400000 p99-ns
BenchmarkAblationCombiner-8   	       1	  50000000 ns/op	         0.880 combined-recall
PASS
ok  	repro	12.345s
`

func TestParseBench(t *testing.T) {
	samples, err := ParseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 {
		t.Fatalf("got %d samples, want 3: %+v", len(samples), samples)
	}
	// GOMAXPROCS suffix stripped; repeated runs averaged.
	s := samples[0]
	if s.Name != "BenchmarkIngestThroughput/pipelined/writers=4" {
		t.Errorf("name = %q (want proc suffix stripped)", s.Name)
	}
	if got := s.Metrics["ns/op"]; got != (87065.0+89000.0)/2 {
		t.Errorf("averaged ns/op = %v", got)
	}
	if got := s.Metrics["docs/sec"]; got != (11487.0+11000.0)/2 {
		t.Errorf("averaged docs/sec = %v", got)
	}
	if got := samples[1].Metrics["p99-ns"]; got != 2400000 {
		t.Errorf("p99-ns = %v", got)
	}
}

func TestCompareBenchDirections(t *testing.T) {
	baseline := []BenchSample{{
		Name: "BenchmarkX",
		Metrics: map[string]float64{
			"ns/op": 1000, "docs/sec": 1000, "p50-ns": 1000, "recall": 0.9,
		},
	}}

	// Within threshold in both directions; ns/op and quality metrics are
	// not gated at all.
	ok := []BenchSample{{
		Name: "BenchmarkX",
		Metrics: map[string]float64{
			"ns/op": 2000, "docs/sec": 900, "p50-ns": 1249, "recall": 0.1,
		},
	}}
	if regs := CompareBench(baseline, ok, 0.25); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// p50 up 30%, throughput down 30%.
	bad := []BenchSample{{
		Name: "BenchmarkX",
		Metrics: map[string]float64{
			"ns/op": 1000, "docs/sec": 700, "p50-ns": 1300, "recall": 0.1,
		},
	}}
	regs := CompareBench(baseline, bad, 0.25)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions, want 2 (p50-ns + docs/sec): %v", len(regs), regs)
	}
	if regs[0].Unit != "docs/sec" && regs[1].Unit != "docs/sec" {
		t.Errorf("throughput drop not flagged: %v", regs)
	}
	for _, r := range regs {
		if r.Delta < 0.29 || r.Delta > 0.31 {
			t.Errorf("delta = %v, want ~0.30 (%v)", r.Delta, r)
		}
		if r.String() == "" {
			t.Error("empty String()")
		}
	}

	// Benchmarks present only on one side are ignored.
	other := []BenchSample{{Name: "BenchmarkY", Metrics: map[string]float64{"ns/op": 1}}}
	if regs := CompareBench(baseline, other, 0.25); len(regs) != 0 {
		t.Fatalf("unmatched benchmark compared: %v", regs)
	}
}

// TestCompareBenchLagNeverGated checks replication-lag metrics are recorded
// but excluded from gating — even a lag unit that would otherwise match a
// gated class (a "/sec" suffix, say) stays exempt.
func TestCompareBenchLagNeverGated(t *testing.T) {
	baseline := []BenchSample{{
		Name: "BenchmarkReplicationLag/followers=1",
		Metrics: map[string]float64{
			"docs/sec": 1000, "lag-p50-ns": 1000, "lag-p99-ns": 2000, "lag-flushes/sec": 100,
		},
	}}
	// Lag metrics blow out by 10x; throughput holds. Nothing regresses.
	current := []BenchSample{{
		Name: "BenchmarkReplicationLag/followers=1",
		Metrics: map[string]float64{
			"docs/sec": 1000, "lag-p50-ns": 10000, "lag-p99-ns": 20000, "lag-flushes/sec": 1,
		},
	}}
	if regs := CompareBench(baseline, current, 0.25); len(regs) != 0 {
		t.Fatalf("lag metrics gated: %v", regs)
	}
	// The throughput unit on the same benchmark still gates.
	current[0].Metrics["docs/sec"] = 500
	regs := CompareBench(baseline, current, 0.25)
	if len(regs) != 1 || regs[0].Unit != "docs/sec" {
		t.Fatalf("regressions = %v, want exactly the docs/sec drop", regs)
	}
}

func TestRatioCheck(t *testing.T) {
	samples := []BenchSample{
		{Name: "BenchmarkIngestThroughput/pipelined/writers=4", Metrics: map[string]float64{"docs/sec": 3000}},
		{Name: "BenchmarkIngestThroughput/serialized/writers=4", Metrics: map[string]float64{"docs/sec": 1000}},
	}
	ratio, ok := RatioCheck(samples, "docs/sec",
		"BenchmarkIngestThroughput/pipelined/writers=4",
		"BenchmarkIngestThroughput/serialized/writers=4")
	if !ok || ratio != 3 {
		t.Fatalf("ratio = %v, %v; want 3, true", ratio, ok)
	}
	if _, ok := RatioCheck(samples, "docs/sec", "missing", "also-missing"); ok {
		t.Fatal("RatioCheck ok for missing benchmarks")
	}
	if _, ok := RatioCheck(samples, "ns/op",
		"BenchmarkIngestThroughput/pipelined/writers=4",
		"BenchmarkIngestThroughput/serialized/writers=4"); ok {
		t.Fatal("RatioCheck ok for missing unit")
	}
}

func TestRatioRule(t *testing.T) {
	samples := []BenchSample{
		{Name: "BenchmarkIngestThroughput/pipelined/writers=4", Metrics: map[string]float64{"docs/sec": 900}},
		{Name: "BenchmarkIngestThroughput/serialized/writers=4", Metrics: map[string]float64{"docs/sec": 1000}},
		{Name: "BenchmarkWALEncode/binary", Metrics: map[string]float64{"bytes/rec": 60}},
		{Name: "BenchmarkWALEncode/json", Metrics: map[string]float64{"bytes/rec": 100}},
	}
	const (
		pipe = "BenchmarkIngestThroughput/pipelined/writers=4 / BenchmarkIngestThroughput/serialized/writers=4 docs/sec"
		wal  = "BenchmarkWALEncode/binary / BenchmarkWALEncode/json bytes/rec"
	)
	for _, tc := range []struct {
		name, rule string
		pass       bool
	}{
		{"floor holds", pipe + " >= 0.8", true},
		{"floor holds at the bound", pipe + " >= 0.9", true},
		{"floor violated", pipe + " >= 0.95", false},
		{"ceiling holds", wal + " <= 0.7", true},
		{"ceiling violated", wal + " <= 0.5", false},
		{"missing numerator", "BenchmarkObsOverhead/instrumented / BenchmarkIngestThroughput/serialized/writers=4 docs/sec >= 0.8", false},
		{"missing denominator", "BenchmarkIngestThroughput/pipelined/writers=4 / BenchmarkObsOverhead/bare docs/sec >= 0.8", false},
		{"missing unit", "BenchmarkWALEncode/binary / BenchmarkWALEncode/json docs/sec <= 0.7", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rule, err := ParseRatioRule(tc.rule)
			if err != nil {
				t.Fatal(err)
			}
			if rule.String() != tc.rule {
				t.Errorf("String() = %q, want %q", rule.String(), tc.rule)
			}
			if _, err := rule.Check(samples); (err == nil) != tc.pass {
				t.Errorf("Check error = %v, want pass=%v", err, tc.pass)
			}
		})
	}
	for _, bad := range []string{
		"",
		"A / B docs/sec > 0.8",
		"A B docs/sec >= 0.8",
		"A / B docs/sec >= x",
		"A / B >= 0.8",
	} {
		if _, err := ParseRatioRule(bad); err == nil {
			t.Errorf("ParseRatioRule(%q) accepted", bad)
		}
	}
}
