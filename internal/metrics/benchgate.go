package metrics

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file implements the CI benchmark-regression gate: a small parser
// for `go test -bench` output plus a comparator that flags metrics
// regressing beyond a threshold against a committed baseline. It stands in
// for benchstat where installing external tooling is unwanted.

// BenchSample is one parsed benchmark result line: the benchmark name
// (GOMAXPROCS suffix stripped, so runs from machines with different core
// counts compare) and its metrics by unit (ns/op, docs/sec, p50-ns, ...).
type BenchSample struct {
	Name    string
	Metrics map[string]float64
}

// procSuffix matches the trailing "-N" GOMAXPROCS marker on benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseBench reads `go test -bench` output, returning one sample per
// benchmark result line. Repeated runs of the same benchmark (-count > 1)
// average per metric. Non-benchmark lines (goos/pkg headers, PASS/ok) are
// skipped.
func ParseBench(r io.Reader) ([]BenchSample, error) {
	byName := make(map[string]*benchAccum)
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iteration count, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		acc, ok := byName[name]
		if !ok {
			acc = &benchAccum{sums: make(map[string]float64), counts: make(map[string]int)}
			byName[name] = acc
			order = append(order, name)
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("metrics: benchmark %s: bad value %q: %v", name, fields[i], err)
			}
			unit := fields[i+1]
			acc.sums[unit] += v
			acc.counts[unit]++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make([]BenchSample, 0, len(order))
	for _, name := range order {
		acc := byName[name]
		m := make(map[string]float64, len(acc.sums))
		for unit, sum := range acc.sums {
			m[unit] = sum / float64(acc.counts[unit])
		}
		out = append(out, BenchSample{Name: name, Metrics: m})
	}
	return out, nil
}

type benchAccum struct {
	sums   map[string]float64
	counts map[string]int
}

// lowerBetter classifies units where smaller is faster; higherBetter
// classifies throughput-style units. The gate deliberately covers p50
// latency and throughput only: ns/op duplicates the throughput metrics on
// the gated benchmarks, and tail latency (p99) and allocation counters
// are too noisy or incidental to gate at a fixed threshold. Units in
// neither set (quality metrics like recall or acc) are never gated, and
// units prefixed "lag-" (replication apply lag) are excluded outright —
// wall-clock lag tracks scheduler and CI-runner noise far more than the
// code under test, so it is recorded in the bench artifact but never gates.
var (
	lowerBetter = map[string]bool{
		"p50-ns": true,
	}
	higherBetterSuffix = "/sec"
)

// BenchRegression is one metric that moved past the threshold in the bad
// direction between a baseline and a current run.
type BenchRegression struct {
	Name     string
	Unit     string
	Baseline float64
	Current  float64
	// Delta is the fractional change in the bad direction (0.30 = 30%
	// slower / 30% less throughput).
	Delta float64
}

// String renders the regression for a CI log.
func (r BenchRegression) String() string {
	return fmt.Sprintf("%s %s: baseline %.6g, current %.6g (%+.1f%%)",
		r.Name, r.Unit, r.Baseline, r.Current, 100*r.Delta)
}

// RatioCheck returns numerator's metric over denominator's metric for one
// unit within a single run — the machine-independent companion to the
// absolute baseline comparison (e.g. "pipelined ingest throughput over
// serialized, same machine, same run"). ok is false when either benchmark
// or the unit is missing, or the denominator is zero.
func RatioCheck(samples []BenchSample, unit, numerator, denominator string) (ratio float64, ok bool) {
	var num, den float64
	var haveNum, haveDen bool
	for _, s := range samples {
		switch s.Name {
		case numerator:
			num, haveNum = s.Metrics[unit]
		case denominator:
			den, haveDen = s.Metrics[unit]
		}
	}
	if !haveNum || !haveDen || den == 0 {
		return 0, false
	}
	return num / den, true
}

// RatioRule is one within-run ratio bound: Num's Unit metric over Den's,
// measured in the same run, must be >= Bound (a floor) or <= Bound (a
// ceiling). Both benchmarks run in one process, so the rule holds on any
// hardware.
type RatioRule struct {
	Num, Den, Unit string
	Op             string // ">=" or "<="
	Bound          float64
}

// ParseRatioRule parses a rule written "NUM / DEN UNIT >= x" or
// "NUM / DEN UNIT <= x", e.g.
// "BenchmarkWALEncode/binary / BenchmarkWALEncode/json bytes/rec <= 0.7".
func ParseRatioRule(s string) (RatioRule, error) {
	f := strings.Fields(s)
	if len(f) != 6 || f[1] != "/" || (f[4] != ">=" && f[4] != "<=") {
		return RatioRule{}, fmt.Errorf("metrics: ratio rule %q: want 'NUM / DEN UNIT >= x' or 'NUM / DEN UNIT <= x'", s)
	}
	bound, err := strconv.ParseFloat(f[5], 64)
	if err != nil {
		return RatioRule{}, fmt.Errorf("metrics: ratio rule %q: bad bound: %v", s, err)
	}
	return RatioRule{Num: f[0], Den: f[2], Unit: f[3], Op: f[4], Bound: bound}, nil
}

// String renders the rule in the syntax ParseRatioRule reads.
func (r RatioRule) String() string {
	return fmt.Sprintf("%s / %s %s %s %g", r.Num, r.Den, r.Unit, r.Op, r.Bound)
}

// Check evaluates the rule against one run. It fails (non-nil error) on a
// bound violation and also when either benchmark or the unit is missing
// from the run: a rule that cannot be evaluated never passes.
func (r RatioRule) Check(samples []BenchSample) (ratio float64, err error) {
	ratio, ok := RatioCheck(samples, r.Unit, r.Num, r.Den)
	if !ok {
		return 0, fmt.Errorf("%s: benchmark or unit missing from the run", r)
	}
	if (r.Op == ">=" && ratio < r.Bound) || (r.Op == "<=" && ratio > r.Bound) {
		return ratio, fmt.Errorf("%s: ratio is %.3f", r, ratio)
	}
	return ratio, nil
}

// CompareBench flags every metric present in both runs that regressed by
// more than threshold (0.25 = 25%): latency-style units (ns/op, p50-ns,
// ...) regress by growing, throughput-style units (anything per second) by
// shrinking. Benchmarks present in only one run are ignored, so adding or
// retiring benchmarks does not break the gate.
func CompareBench(baseline, current []BenchSample, threshold float64) []BenchRegression {
	base := make(map[string]BenchSample, len(baseline))
	for _, s := range baseline {
		base[s.Name] = s
	}
	var out []BenchRegression
	for _, cur := range current {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		units := make([]string, 0, len(cur.Metrics))
		for unit := range cur.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			bv, ok := b.Metrics[unit]
			if !ok || bv == 0 {
				continue
			}
			cv := cur.Metrics[unit]
			var delta float64
			switch {
			case strings.HasPrefix(unit, "lag-"):
				continue // recorded, never gated
			case lowerBetter[unit]:
				delta = cv/bv - 1
			case strings.HasSuffix(unit, higherBetterSuffix):
				delta = 1 - cv/bv
			default:
				continue
			}
			if delta > threshold {
				out = append(out, BenchRegression{
					Name: cur.Name, Unit: unit, Baseline: bv, Current: cv, Delta: delta,
				})
			}
		}
	}
	return out
}
