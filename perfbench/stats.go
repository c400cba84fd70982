package main

import (
	"math"
	"sort"
	"time"
)

// failedMs is the latency recorded for an operation that failed or was
// refused: larger than any latency limit, so a failure always counts as a
// miss, yet finite so that it still encodes as JSON.
const failedMs = 1e9

// tailBeyond is how many samples must lie beyond the reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// summary is a latency distribution reduced to what the benchmark
// reports: the median, the tail with the percentile it was taken at, and
// the value at a fixed percentile.
type summary struct {
	P50     float64
	Tail    float64
	TailPct float64
	N       int
	// Fixed is the value at the percentile the caller fixed, and Beyond
	// the number of samples above it.
	Fixed  float64
	Beyond int
}

// summarize reduces samples (milliseconds) to their median, their tail and
// their value at percentile fixed. The tail is the highest percentile, at
// most the 99th, that has at least tailBeyond samples beyond it; with too
// few samples for any such percentile above the median, the tail is the
// median. Gated metrics use the fixed percentile instead, because the
// tail's percentile moves with the sample count and so with throughput.
func summarize(samples []float64, fixed float64) summary {
	n := len(samples)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pct, idx := tailRank(n)
	f := nearestRank(n, fixed)
	return summary{P50: s[nearestRank(n, 50)], Tail: s[idx], TailPct: pct, N: n, Fixed: s[f], Beyond: n - 1 - f}
}

// tailRank returns the tail percentile for n samples and the 0-based index
// of the sample it selects.
func tailRank(n int) (pct float64, idx int) {
	med := nearestRank(n, 50)
	if n-tailBeyond-1 <= med {
		return 50, med
	}
	idx99 := nearestRank(n, 99)
	if n-1-idx99 >= tailBeyond {
		return 99, idx99
	}
	// The sample at 0-based index n-tailBeyond-1 has exactly tailBeyond
	// samples beyond it; it is the nearest-rank value of this percentile.
	return 100 * float64(n-tailBeyond) / float64(n), n - tailBeyond - 1
}

// nearestRank is the 0-based index of the nearest-rank p-th percentile of
// n sorted samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// median returns the middle value of xs (the lower middle for an even
// count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
