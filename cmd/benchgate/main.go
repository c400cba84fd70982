// Command benchgate compares a `go test -bench` run against a committed
// baseline and exits non-zero when any gated metric regressed beyond the
// threshold — the CI benchmark-regression gate:
//
//	go run ./cmd/benchgate -baseline bench_baseline.txt -current bench.txt
//
// Gated metrics are p50 latency (p50-ns; grows = regression) and
// throughput (any */sec unit; shrinks = regression). Raw ns/op, tail
// latency, allocation counters, and quality metrics (recall, accuracy)
// are recorded in the artifacts but not gated — they are too noisy or not
// performance. Benchmarks present on only one side are skipped, so the
// gate tolerates adding or retiring benchmarks. Refresh the baseline with
// the command printed in bench_baseline.txt after an intentional change.
//
// Each repeatable -ratio rule bounds the ratio of two benchmarks measured
// in the current run, e.g.
//
//	-ratio 'BenchmarkWALEncode/binary / BenchmarkWALEncode/json bytes/rec <= 0.7'
//
// Such a rule holds on any hardware; a benchmark missing from the run
// fails it.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"

	"repro/internal/metrics"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	baselinePath := flag.String("baseline", "bench_baseline.txt", "committed baseline bench output")
	currentPath := flag.String("current", "bench.txt", "freshly measured bench output")
	threshold := flag.Float64("threshold", 0.25, "fractional regression that fails the gate")
	filter := flag.String("filter", "", "regexp limiting which benchmarks are gated (default: all)")
	var rules ratioRules
	flag.Var(&rules, "ratio",
		"within-run ratio rule 'NUM / DEN UNIT >= x' (floor) or '... <= x' (ceiling); repeatable. A benchmark missing from the current run fails the rule")
	flag.Parse()

	baseline := parse(*baselinePath)
	current := parse(*currentPath)

	// The absolute comparison below is only meaningful against a baseline
	// from comparable hardware; ratio rules hold on any machine, because
	// numerator and denominator are measured in the same run.
	failed := false
	for _, rule := range rules {
		if ratio, err := rule.Check(current); err != nil {
			fmt.Printf("REGRESSION: %v\n", err)
			failed = true
		} else {
			fmt.Printf("benchgate: %s holds (ratio %.3f)\n", rule, ratio)
		}
	}
	if *filter != "" {
		re, err := regexp.Compile(*filter)
		if err != nil {
			log.Fatalf("bad -filter: %v", err)
		}
		baseline = keep(baseline, re)
		current = keep(current, re)
	}
	if len(current) == 0 {
		log.Fatalf("no benchmark results in %s", *currentPath)
	}

	regressions := metrics.CompareBench(baseline, current, *threshold)
	fmt.Printf("benchgate: compared %d benchmark(s) at threshold %.0f%%\n", len(current), 100**threshold)
	for _, r := range regressions {
		fmt.Printf("REGRESSION: %s\n", r)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("benchgate: no regressions")
}

func parse(path string) []metrics.BenchSample {
	f, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	samples, err := metrics.ParseBench(f)
	if err != nil {
		log.Fatalf("parse %s: %v", path, err)
	}
	return samples
}

func keep(samples []metrics.BenchSample, re *regexp.Regexp) []metrics.BenchSample {
	out := samples[:0]
	for _, s := range samples {
		if re.MatchString(s.Name) {
			out = append(out, s)
		}
	}
	return out
}

// ratioRules collects repeated -ratio flags.
type ratioRules []metrics.RatioRule

func (r *ratioRules) String() string { return fmt.Sprint(*r) }

func (r *ratioRules) Set(s string) error {
	rule, err := metrics.ParseRatioRule(s)
	if err != nil {
		return err
	}
	*r = append(*r, rule)
	return nil
}
