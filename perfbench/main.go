// Command perfbench is the repository's benchmark. It serves a bench-scale
// lake through the real HTTP handler stack on loopback listeners — a
// durable leader with an in-process follower — drives one named workload
// against it from a seed, checks that the outputs are correct, and prints
// one JSON line of metrics. Run it from the repository root:
//
//	bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with no
// tracing after a warm-up. With --trace 1 it prints the per-layer metrics:
// a traced run replays the same inputs stage by stage in library mode,
// timing the calls into each layer from this package, and /metrics deltas
// count what each layer did. A human-readable summary goes to standard
// error; the last line of standard output is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

const (
	// setupReps is how many times a run builds the deployment; setup_s is
	// the median.
	setupReps = 3
	// warmup runs the workload untimed before the measured phase.
	warmup = time.Second
	// measureProcs is the GOMAXPROCS of every measured phase.
	measureProcs = 1
	// libWorkers is how many goroutines verify in parallel outside the
	// load phases: one, like the reading clients.
	libWorkers = 1
	// traceObjects is how many of the objects a run verified the traced
	// run replays.
	traceObjects = 80
	// traceBatches caps the writes the traced run replays.
	traceBatches = 300
	// hitProbes is how many cache hits core.cache_hit_us times.
	hitProbes = 64
	// The fixed percentiles of the tail metrics. Each leaves at least
	// tailBeyond samples beyond it in a run, and sits where the latency
	// distribution is smooth: one tuple in eight is a 55-75 ms outlier
	// class, so a tuple p90 flips between classes from run to run. Write
	// tails are reported per layer only: some writes wait out a WAL fsync
	// (the log holds its lock while it syncs) or the follower applying the
	// previous write, and the share that does varies from run to run.
	claimPct, tuplePct, writePct = 95, 80, 80
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: verify-cold or verify-hot")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {verify-cold|verify-hot}, --seconds >= 1, --trace {0|1}\n")
		return 2
	}
	dir := filepath.Join(".bench_build", "runs", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	out, err := execute(spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1, dir)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out.report(stderr)
	line, err := out.json(*trace == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, printed with
// --trace 0.
var endToEnd = []metricDef{
	{"claim_p50_ms", "ms", "lower"},
	{"claim_p95_ms", "ms", "lower"},
	{"tuple_p50_ms", "ms", "lower"},
	{"tuple_p80_ms", "ms", "lower"},
	{"verify_per_s", "1/s", "higher"},
	{"write_p50_ms", "ms", "lower"},
	{"replica_visible_p50_ms", "ms", "lower"},
	{"verdict_accuracy", "ratio", "higher"},
	{"setup_s", "s", "lower"},
}

// perLayer are the single-layer metrics, printed with --trace 1. Verify
// layers report per operation type.
var perLayer = []metricDef{
	{"server.verify_overhead_ms.claim", "ms", "lower"},
	{"server.verify_overhead_ms.tuple", "ms", "lower"},
	{"server.ingest_overhead_ms", "ms", "lower"},
	{"server.rejected", "count", "lower"},
	{"server.errors_5xx", "count", "lower"},
	{"core.cache_hit_ratio", "ratio", "higher"},
	{"core.cache_hit_us", "us", "lower"},
	{"core.query_cache_hit_ratio", "ratio", "higher"},
	{"embed.query_ms.claim", "ms", "lower"},
	{"embed.query_ms.tuple", "ms", "lower"},
	{"embed.item_ms", "ms", "lower"},
	{"retrieve.total_ms.claim", "ms", "lower"},
	{"retrieve.total_ms.tuple", "ms", "lower"},
	{"retrieve.bm25_ms.claim", "ms", "lower"},
	{"retrieve.bm25_ms.tuple", "ms", "lower"},
	{"retrieve.vector_ms.claim", "ms", "lower"},
	{"retrieve.vector_ms.tuple", "ms", "lower"},
	{"retrieve.candidates.claim", "count", "lower"},
	{"retrieve.candidates.tuple", "count", "lower"},
	{"datalake.resolve_ms.claim", "ms", "lower"},
	{"datalake.resolve_ms.tuple", "ms", "lower"},
	{"datalake.addbatch_ms", "ms", "lower"},
	{"rerank.total_ms.claim", "ms", "lower"},
	{"rerank.total_ms.tuple", "ms", "lower"},
	{"rerank.opentfv_ms.claim", "ms", "lower"},
	{"rerank.tuple_tuple_ms.tuple", "ms", "lower"},
	{"rerank.tuple_text_ms.tuple", "ms", "lower"},
	{"rerank.scored.claim", "count", "lower"},
	{"rerank.scored.tuple", "count", "lower"},
	{"verify.agent_ms.claim", "ms", "lower"},
	{"verify.agent_ms.tuple", "ms", "lower"},
	{"verify.calls.claim", "count", "lower"},
	{"verify.calls.tuple", "count", "lower"},
	{"provenance.append_us.claim", "us", "lower"},
	{"provenance.append_us.tuple", "us", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.sync_ms", "ms", "lower"},
	{"wal.bytes_per_item", "B", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"durable.checkpoint_s", "s", "lower"},
	{"cdc.records_streamed_per_item", "count", "lower"},
	{"cdc.lag_after_ack_p50_ms", "ms", "lower"},
	{"cdc.lag_after_ack_p80_ms", "ms", "lower"},
	{"trace.coverage.claim", "ratio", "higher"},
	{"trace.coverage.tuple", "ratio", "higher"},
	{"trace.overhead", "ratio", "lower"},
	{"load.write_p80_ms", "ms", "lower"},
	{"load.replica_visible_p80_ms", "ms", "lower"},
	{"load.write_late_p50_ms", "ms", "lower"},
	{"load.write_late_max_ms", "ms", "lower"},
	{"load.samples.claim", "count", "higher"},
	{"load.samples.tuple", "count", "higher"},
	{"load.samples.write", "count", "higher"},
	{"load.ryw_probes", "count", "higher"},
	{"counts.result_cache_hits", "count", "higher"},
	{"counts.result_cache_misses", "count", "lower"},
	{"counts.query_cache_hits", "count", "higher"},
	{"counts.verifier_calls", "count", "lower"},
	{"counts.wal_records", "count", "lower"},
	{"counts.wal_bytes", "B", "lower"},
	{"counts.cdc_records", "count", "lower"},
}

// outcome is one run's verdict on correctness and its measurements.
type outcome struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	values    map[string]float64
	problems  []string
	notes     []string
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.correct = false
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// execute runs one workload end to end.
func execute(spec workloadSpec, seed uint64, seconds time.Duration, traced bool, dir string) (*outcome, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	d, setupTimes, err := setupRepeated(dir, setupReps)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	p, err := buildPools(d.corpus)
	if err != nil {
		return nil, err
	}
	o := &outcome{workload: spec.name, correct: true, values: make(map[string]float64)}
	o.values["setup_s"] = median(setupTimes)

	// The measured phases run on one core, with one reading client. On the
	// shared two-vCPU machines this benchmark is sized for, two busy
	// threads run at a speed that swings by up to 2x within seconds, while
	// one busy thread holds steady; and two clients sharing one core would
	// make each latency a mixture of what the other happened to run.
	// Set-up keeps both cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(measureProcs))

	// The verdict prefix: the same fixed inputs on every run and seed,
	// verified over HTTP and through the library.
	pre := p.prefix()
	httpReps, errs := prefixHTTP(d.leaderURL, pre, libWorkers)
	o.attempted += len(pre)
	for _, err := range errs {
		o.failed++
		o.check(false, "prefix over HTTP: %v", err)
	}
	if len(errs) > 0 {
		return o, nil
	}
	libReps, err := prefixLibrary(d, pre, libWorkers)
	if err != nil {
		return nil, err
	}
	httpDigest, libDigest := digest(httpReps), digest(libReps)
	o.check(httpDigest == libDigest, "prefix digest over HTTP %s differs from the library's %s", httpDigest, libDigest)
	o.check(httpDigest == g.Digest, "prefix digest %s differs from the recorded %s", httpDigest, g.Digest)
	correct := accuracy(pre, httpReps)
	o.check(correct == g.Correct && len(pre) == g.Total, "prefix verdicts: %d of %d match ground truth, recorded %d of %d", correct, len(pre), g.Correct, g.Total)
	o.values["verdict_accuracy"] = float64(correct) / float64(len(pre))
	o.note("prefix digest %s (%d objects, %d verdicts correct)", httpDigest, len(pre), correct)

	// The load: an untimed warm-up, the measured phase, then the ingest
	// probe, with the leader's /metrics scraped between them.
	dr := newRunner(d, spec, p, seed)
	if spec.mode == readSet {
		if err := dr.warm(); err != nil {
			return nil, err
		}
	}
	warm := dr.phase(warmup, readLoad)
	scraper := newHTTPClient()
	defer scraper.close()
	before, err := scraper.scrape(d.leaderURL)
	if err != nil {
		return nil, err
	}
	runtime.GC() // start the measured phase without the warm-up's garbage
	res := dr.phase(seconds, readLoad)
	mid, err := scraper.scrape(d.leaderURL)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	writes := dr.phase(probeFor, ingestProbe)
	phases := []*phaseResult{warm, res, writes}
	after, err := scraper.scrape(d.leaderURL)
	if err != nil {
		return nil, err
	}
	ryw := 0
	for _, ph := range phases {
		o.attempted += ph.attempted
		o.failed += ph.failed
		o.problems = append(o.problems, ph.errs...)
		ryw += ph.rywFailed
	}
	o.check(ryw == 0, "%d read-your-writes violations", ryw)
	// readDelta covers the measured phase, writeDelta the ingest probe.
	readDelta := func(name string) float64 { return mid[name] - before[name] }
	writeDelta := func(name string) float64 { return after[name] - mid[name] }

	// Replicas converge: the follower reaches the leader's version.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	head := d.leader.LakeVersion()
	err = d.follower.Pipeline().WaitFresh(ctx, head)
	o.check(err == nil && d.follower.LakeVersion() == head, "follower at version %d, leader at %d (%v)", d.follower.LakeVersion(), head, err)

	hits, misses := readDelta("verifai_result_cache_hits_total"), readDelta("verifai_result_cache_misses_total")
	hitRatio := ratio(hits, hits+misses)
	o.check(hitRatio >= spec.minHitRatio && hitRatio <= spec.maxHitRatio,
		"result-cache hit ratio %.3f outside [%.2f, %.2f]: the workload is not the one it is named for", hitRatio, spec.minHitRatio, spec.maxHitRatio)

	claim, tuple := summarize(res.latMs[opClaim], claimPct), summarize(res.latMs[opTuple], tuplePct)
	write, visible := summarize(writes.writes.LatencyMs, writePct), summarize(writes.visibleMs, writePct)
	o.values["claim_p50_ms"], o.values["claim_p95_ms"] = claim.P50, claim.Fixed
	o.values["tuple_p50_ms"], o.values["tuple_p80_ms"] = tuple.P50, tuple.Fixed
	o.values["write_p50_ms"], o.values["load.write_p80_ms"] = write.P50, write.Fixed
	o.values["replica_visible_p50_ms"], o.values["load.replica_visible_p80_ms"] = visible.P50, visible.Fixed
	o.values["verify_per_s"] = ratio(float64(res.verifies), res.wall.Seconds())
	for _, s := range []struct {
		what string
		pct  float64
		sum  summary
	}{{"claim", claimPct, claim}, {"tuple", tuplePct, tuple}, {"write", writePct, write}, {"replica visible", writePct, visible}} {
		o.note("%s: %d samples, p50 %.3f ms, p%.0f %.3f ms (%d beyond); tail p%.1f %.3f ms",
			s.what, s.sum.N, s.sum.P50, s.pct, s.sum.Fixed, s.sum.Beyond, s.sum.TailPct, s.sum.Tail)
		if s.sum.Beyond < tailBeyond {
			o.note("%s: fewer than %d samples beyond p%.0f; that figure is unreliable", s.what, tailBeyond, s.pct)
		}
	}
	o.note("set-up times %.3v s; result-cache hit ratio %.4f over the measured phase; %d read-your-writes probes",
		setupTimes, hitRatio, writes.ryw)

	if !traced {
		return o, nil
	}

	// Per-layer metrics.
	v := o.values
	v["core.cache_hit_ratio"] = hitRatio
	qh, qm := readDelta("verifai_query_cache_hits_total"), readDelta("verifai_query_cache_misses_total")
	v["core.query_cache_hit_ratio"] = ratio(qh, qh+qm)
	items := 0
	for _, sb := range writes.sent {
		items += len(sb.items)
	}
	v["server.rejected"] = readDelta("verifai_http_requests_total|429") + writeDelta("verifai_http_requests_total|429")
	v["server.errors_5xx"] = readDelta("verifai_http_requests_total|5xx") + writeDelta("verifai_http_requests_total|5xx")
	v["wal.fsyncs"] = writeDelta("verifai_wal_fsync_seconds_count")
	v["wal.bytes_per_item"] = ratio(writeDelta("verifai_wal_appended_bytes_total"), writeDelta("verifai_wal_appended_records_total"))
	v["cdc.records_streamed_per_item"] = ratio(writeDelta("verifai_cdc_stream_records_total"), float64(items))
	afterAck := summarize(writes.afterAckMs, writePct)
	v["cdc.lag_after_ack_p50_ms"], v["cdc.lag_after_ack_p80_ms"] = afterAck.P50, afterAck.Fixed
	v["counts.result_cache_hits"] = hits
	v["counts.result_cache_misses"] = misses
	v["counts.query_cache_hits"] = qh
	v["counts.verifier_calls"] = readDelta("verifai_verifier_calls_total")
	v["counts.wal_records"] = writeDelta("verifai_wal_appended_records_total")
	v["counts.wal_bytes"] = writeDelta("verifai_wal_appended_bytes_total")
	v["counts.cdc_records"] = writeDelta("verifai_cdc_stream_records_total")
	v["load.write_late_p50_ms"] = median(writes.writes.LateMs)
	v["load.write_late_max_ms"] = maxOf(writes.writes.LateMs)
	v["load.samples.claim"] = float64(claim.N)
	v["load.samples.tuple"] = float64(tuple.N)
	v["load.samples.write"] = float64(write.N)
	v["load.ryw_probes"] = float64(writes.ryw)

	start := time.Now()
	if _, err := d.leader.Checkpoint(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	v["durable.checkpoint_s"] = time.Since(start).Seconds()

	// The library-mode breakdown over the inputs the measured phase used.
	var traceReqs, hitReqs []request
	if spec.mode == readCold {
		traceReqs = dr.sequence[res.consumedFrom:res.consumedTo]
	} else {
		traceReqs = dr.set
	}
	traceReqs = traceReqs[:min(traceObjects, len(traceReqs))]
	hitReqs = traceReqs[:min(hitProbes, len(traceReqs))]
	hitUs, err := cacheHitTimes(d, hitReqs)
	if err != nil {
		return nil, err
	}
	v["core.cache_hit_us"] = median(hitUs)

	tr, err := traceRun(newTracer(d.lib), traceReqs, libWorkers)
	if err != nil {
		return nil, err
	}
	o.check(len(tr.mismatches) == 0, "traced replay differs from the library on %d objects: %s", len(tr.mismatches), strings.Join(first(tr.mismatches, 3), "; "))
	reference := tr.libMs
	if spec.mode == readSet {
		// The HTTP phase served these from the leader's result cache, so
		// the library call doing the same work is the leader's own.
		reference = leaderTimes(d, traceReqs)
	}
	for _, k := range []opKind{opClaim, opTuple} {
		s := k.String()
		v["server.verify_overhead_ms."+s] = median(res.latMs[k]) - median(reference[k])
		layerMeans(v, s, tr, traceReqs, k)
	}
	v["trace.overhead"] = ratio(tr.replayTime.Seconds(), tr.libTotal.Seconds())
	for _, k := range []opKind{opClaim, opTuple} {
		if c := v["trace.coverage."+k.String()]; c < 0.95 {
			o.note("trace.coverage.%s %.3f is below 95%%: the traced layers miss part of the library call", k, c)
		}
	}

	sent := writes.sent[:min(traceBatches, len(writes.sent))]
	it, err := traceIngest(d.lib, sent, dir)
	if err != nil {
		return nil, err
	}
	v["datalake.addbatch_ms"] = median(it.addBatchMs)
	v["server.ingest_overhead_ms"] = median(writes.writes.ServiceMs) - median(it.addBatchMs)
	v["embed.item_ms"] = it.embedMs
	v["wal.append_us"] = median(it.appendUs)
	v["wal.sync_ms"] = median(it.syncMs)
	o.note("trace: coverage claim %.3f tuple %.3f, overhead %.3f over %d objects",
		v["trace.coverage.claim"], v["trace.coverage.tuple"], v["trace.overhead"], len(traceReqs))
	return o, nil
}

// layerMeans sets the per-operation means of every traced layer for one
// operation type, and its coverage: traced layer time over the untraced
// library calls' time on the same objects.
func layerMeans(v map[string]float64, s string, tr *traceResult, reqs []request, k opKind) {
	var n float64
	var sum stageTimes
	scorers := make(map[string]time.Duration)
	var stageSum time.Duration
	for i, r := range reqs {
		if r.kind != k {
			continue
		}
		st := tr.stages[i]
		n++
		sum.retrieve += st.retrieve
		sum.resolve += st.resolve
		sum.rerank += st.rerank
		sum.verify += st.verify
		sum.provenance += st.provenance
		sum.embed += st.embed
		sum.bm25 += st.bm25
		sum.vector += st.vector
		sum.candidates += st.candidates
		sum.scored += st.scored
		sum.calls += st.calls
		stageSum += st.sum()
		for name, d := range st.byScorer {
			scorers[name] += d
		}
	}
	mean := func(d time.Duration) float64 { return ratio(ms(d), n) }
	v["embed.query_ms."+s] = mean(sum.embed)
	v["retrieve.total_ms."+s] = mean(sum.retrieve)
	v["retrieve.bm25_ms."+s] = mean(sum.bm25)
	v["retrieve.vector_ms."+s] = mean(sum.vector)
	v["retrieve.candidates."+s] = ratio(float64(sum.candidates), n)
	v["datalake.resolve_ms."+s] = mean(sum.resolve)
	v["rerank.total_ms."+s] = mean(sum.rerank)
	v["rerank.scored."+s] = ratio(float64(sum.scored), n)
	v["verify.agent_ms."+s] = mean(sum.verify)
	v["verify.calls."+s] = ratio(float64(sum.calls), n)
	v["provenance.append_us."+s] = 1000 * mean(sum.provenance)
	if k == opClaim {
		v["rerank.opentfv_ms.claim"] = mean(scorers["opentfv-semantic"])
	} else {
		v["rerank.tuple_tuple_ms.tuple"] = mean(scorers["retclean-cell-alignment"])
		v["rerank.tuple_text_ms.tuple"] = mean(scorers["tuple-text-context"])
	}
	var lib float64
	for _, x := range tr.libMs[k] {
		lib += x
	}
	v["trace.coverage."+s] = ratio(ms(stageSum), lib)
}

// cacheHitTimes times the leader's Pipeline.VerifyCtx on result-cache hits:
// each request is verified once to make sure it is cached, then timed.
func cacheHitTimes(d *deployment, reqs []request) ([]float64, error) {
	p := d.leader.Pipeline()
	ctx := context.Background()
	for _, r := range reqs {
		if _, err := p.VerifyCtx(ctx, r.object(), r.kinds()...); err != nil {
			return nil, err
		}
	}
	hits := p.Stats().ResultCacheHits
	var out []float64
	for _, r := range reqs {
		t0 := time.Now()
		if _, err := p.VerifyCtx(ctx, r.object(), r.kinds()...); err != nil {
			return nil, err
		}
		out = append(out, float64(time.Since(t0))/float64(time.Microsecond))
	}
	if got := p.Stats().ResultCacheHits - hits; got != uint64(len(reqs)) {
		return nil, fmt.Errorf("cache-hit timing: %d of %d calls hit", got, len(reqs))
	}
	return out, nil
}

// leaderTimes times the leader's own Pipeline.VerifyCtx over reqs on the
// benchmark's client count, by operation type.
func leaderTimes(d *deployment, reqs []request) [2][]float64 {
	var out [2][]float64
	lat := make([]float64, len(reqs))
	p := d.leader.Pipeline()
	parallelEach(len(reqs), libWorkers, func(i int) {
		t0 := time.Now()
		_, _ = p.VerifyCtx(context.Background(), reqs[i].object(), reqs[i].kinds()...)
		lat[i] = ms(time.Since(t0))
	})
	for i, r := range reqs {
		out[r.kind] = append(out[r.kind], lat[i])
	}
	return out
}

// prefixHTTP verifies reqs over HTTP on n clients and returns the
// canonical reports in request order.
func prefixHTTP(base string, reqs []request, n int) ([]canonReport, []error) {
	reps := make([]canonReport, len(reqs))
	errs := make([]error, len(reqs))
	var mu sync.Mutex
	cls := make([]*httpClient, 0, n)
	pool := make(chan *httpClient, n)
	for i := 0; i < n; i++ {
		cl := newHTTPClient()
		cls = append(cls, cl)
		pool <- cl
	}
	parallelEach(len(reqs), n, func(i int) {
		cl := <-pool
		resp, err := cl.verify(base, reqs[i], 0)
		pool <- cl
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", reqs[i].id, err)
			return
		}
		reps[i] = canonFromHTTP(resp)
	})
	for _, cl := range cls {
		cl.close()
	}
	var out []error
	for _, err := range errs {
		if err != nil {
			out = append(out, err)
		}
	}
	return reps, out
}

// prefixLibrary verifies reqs through the library system.
func prefixLibrary(d *deployment, reqs []request, n int) ([]canonReport, error) {
	reps := make([]canonReport, len(reqs))
	errs := make([]error, len(reqs))
	parallelEach(len(reqs), n, func(i int) {
		var rep core.Report
		rep, errs[i] = libVerify(context.Background(), d.lib, reqs[i])
		reps[i] = canonFromReport(rep)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("prefix through the library: %w", err)
	}
	return reps, nil
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func first(xs []string, n int) []string { return xs[:min(n, len(xs))] }

// report writes the human-readable summary.
func (o *outcome) report(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s: correct=%v attempted=%d failed=%d\n", o.workload, o.correct, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for _, p := range o.problems {
		fmt.Fprintln(w, "  PROBLEM: "+p)
	}
	names := make([]string, 0, len(o.values))
	for n := range o.values {
		names = append(names, n)
	}
	sort.Strings(names)
	units := make(map[string]string)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.name] = m.unit
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", n, o.values[n], units[n])
	}
}

// json renders the result line: every end-to-end metric, or with traced
// every per-layer metric.
func (o *outcome) json(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		x, ok := o.values[m.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			if o.correct {
				return nil, fmt.Errorf("metric %s was not measured", m.name)
			}
			x = 0
		}
		metrics[m.name] = value{Value: x, Unit: m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, max(o.attempted, 1), o.failed, metrics})
}
