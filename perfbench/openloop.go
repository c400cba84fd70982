package main

import "time"

// clock is the time source of the open-loop generator; tests substitute a
// simulated one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoopResult records one open-loop run. Latency is measured from each
// operation's due time, so a stall also charges the wait it imposed on
// every later operation; Late is how far behind schedule the generator
// was when it sent each one.
type openLoopResult struct {
	LatencyMs []float64
	LateMs    []float64
	// ServiceMs is the time from send to reply, without the schedule's
	// queueing; it is what an in-process call of the same work compares
	// against.
	ServiceMs []float64
	Attempted int
	Failed    int
}

// openLoop sends operation i at start + i*interval for every due time
// before end, whether or not earlier operations were slow. send performs
// operation i and reports whether it succeeded; a failure counts as
// missing every latency limit.
func openLoop(clk clock, start, end time.Time, interval time.Duration, send func(i int) bool) openLoopResult {
	var res openLoopResult
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return res
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		ok := send(i)
		done := clk.Now()
		res.Attempted++
		res.LateMs = append(res.LateMs, ms(sent.Sub(due)))
		if !ok {
			res.Failed++
			res.LatencyMs = append(res.LatencyMs, failedMs)
			res.ServiceMs = append(res.ServiceMs, failedMs)
			continue
		}
		res.LatencyMs = append(res.LatencyMs, ms(done.Sub(due)))
		res.ServiceMs = append(res.ServiceMs, ms(done.Sub(sent)))
	}
}
