package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestSummarizeTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		pct     float64
		tail    float64
		p50     float64
		comment string
	}{
		{n: 1000, pct: 99, tail: 990, p50: 500, comment: "enough samples for p99"},
		{n: 2000, pct: 99, tail: 1980, p50: 1000, comment: "p99 caps the tail"},
		{n: 500, pct: 98, tail: 490, p50: 250, comment: "too few for p99: p98 leaves ten beyond"},
		{n: 300, pct: 100 * 290.0 / 300, tail: 290, p50: 150, comment: "fractional percentile"},
		{n: 21, pct: 50, tail: 11, p50: 11, comment: "no percentile above the median leaves ten beyond"},
		{n: 1, pct: 50, tail: 1, p50: 1, comment: "single sample"},
	} {
		s := summarize(ramp(tc.n), 90)
		if s.N != tc.n || s.TailPct != tc.pct || s.Tail != tc.tail || s.P50 != tc.p50 {
			t.Errorf("%s: n=%d got %+v, want pct %v tail %v p50 %v", tc.comment, tc.n, s, tc.pct, tc.tail, tc.p50)
		}
		beyond := 0
		for _, x := range ramp(tc.n) {
			if x > s.Tail {
				beyond++
			}
		}
		if s.TailPct > 50 && beyond < tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want at least %d", tc.n, beyond, tailBeyond)
		}
	}
	if s := summarize(nil, 90); s != (summary{}) {
		t.Errorf("empty input: got %+v", s)
	}
}

func TestSummarizeFixedPercentile(t *testing.T) {
	s := summarize(ramp(200), 95)
	if s.Fixed != 190 || s.Beyond != 10 {
		t.Errorf("p95 of 1..200: got %v with %d beyond, want 190 with 10", s.Fixed, s.Beyond)
	}
	if s := summarize(ramp(100), 95); s.Beyond != 5 {
		t.Errorf("p95 of 100 samples: %d beyond, want 5", s.Beyond)
	}
}

func TestFailedOperationsMissEveryLimit(t *testing.T) {
	xs := ramp(1000)
	for i := 0; i < 20; i++ {
		xs[i] = failedMs
	}
	if s := summarize(xs, 99); s.Tail != failedMs || s.Fixed != failedMs {
		t.Errorf("20 failures in 1000 ops: tail %v, want the failure latency", s.Tail)
	}
}

// fakeClock advances only when the generator sleeps or an operation
// runs, so schedules can be checked exactly.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	// Operations take 2ms, except operation 1, which stalls for 35ms.
	service := []time.Duration{2, 35, 2, 2, 2, 2}
	res := openLoop(clk, start, start.Add(60*time.Millisecond), 10*time.Millisecond, func(i int) bool {
		clk.now = clk.now.Add(service[i] * time.Millisecond)
		return i != 5
	})
	// Due at 0,10,...,50. Op 1 is sent at 10 and ends at 45; ops 2 and 3,
	// due at 20 and 30, go out late at 45 and 47; op 4, due at 40, at 49;
	// op 5, due at 50, goes out at 51 and fails.
	wantLate := []float64{0, 0, 25, 17, 9, 1}
	wantLat := []float64{2, 35, 27, 19, 11, failedMs}
	if res.Attempted != 6 || res.Failed != 1 {
		t.Fatalf("attempted %d failed %d, want 6 and 1", res.Attempted, res.Failed)
	}
	for i := range wantLate {
		if res.LateMs[i] != wantLate[i] || res.LatencyMs[i] != wantLat[i] {
			t.Errorf("op %d: late %v latency %v, want %v and %v", i, res.LateMs[i], res.LatencyMs[i], wantLate[i], wantLat[i])
		}
	}
	if res.ServiceMs[2] != 2 {
		t.Errorf("op 2 service time %v, want 2: queueing belongs to latency only", res.ServiceMs[2])
	}
}

func TestOpenLoopStopsAtEnd(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	res := openLoop(clk, clk.now, clk.now.Add(time.Second), 100*time.Millisecond, func(int) bool { return true })
	if res.Attempted != 10 {
		t.Errorf("attempted %d, want one per due time before the end: 10", res.Attempted)
	}
}
