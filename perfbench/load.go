package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/verify"
)

// readerMode says how the closed-loop verify clients pick their next
// object.
type readerMode int

const (
	// readCold walks the cold sequence once: no object repeats.
	readCold readerMode = iota
	// readSet picks uniformly from a seed-chosen working set, verified
	// once before timing so that it starts cached.
	readSet
)

// load is what runs during one phase: closed-loop readers and an
// open-loop writer. Zero values leave a part out.
type load struct {
	readers   int
	writeRate float64 // batches per second
}

// workloadSpec is one named workload.
type workloadSpec struct {
	name string
	mode readerMode
	// setSize is the working-set size for readSet.
	setSize int
	// The result-cache hit ratio of the measured phase must lie in
	// [minHitRatio, maxHitRatio], so a workload cannot silently turn into
	// another one.
	minHitRatio, maxHitRatio float64
}

// ingestProbe is the write load measured after each workload's verify
// phase, at about a quarter of what the one core sustains with the
// follower applying every write, so that queueing stays small. Its batches
// (probeMix) hold one item of each of the three kinds in turn: a table
// every 25th batch, each checked by a read-your-writes probe, a document
// every 5th, triples otherwise.
var (
	ingestProbe = load{writeRate: 125}
	probeMix    = batchMix{size: 1, tableEvery: 25, docEvery: 5}
)

// probeFor is how long the ingest probe runs.
const probeFor = 3 * time.Second

// readLoad is every workload's measured phase: one closed-loop client.
var readLoad = load{readers: 1}

var workloads = []workloadSpec{
	{
		name: "verify-cold", mode: readCold,
		minHitRatio: 0, maxHitRatio: 0.02,
	},
	{
		name: "verify-hot", mode: readSet, setSize: 256,
		minHitRatio: 0.98, maxHitRatio: 1,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// lagSample asks the lag probe to time the follower's catch-up to version.
type lagSample struct {
	due, ack time.Time
	version  uint64
}

// probe is a read-your-writes check on a just-acknowledged table.
type probe struct {
	req     request
	version uint64
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	wall      time.Duration
	latMs     [2][]float64 // by opKind
	verifies  int
	attempted int
	failed    int
	writes    openLoopResult
	sent      []batch // acknowledged batches, for the library replay
	// visibleMs runs from each write's due time to the follower having
	// applied it; afterAckMs from the leader's acknowledgement.
	visibleMs, afterAckMs []float64
	ryw                   int // read-your-writes probes run
	rywFailed             int
	// The range of the cold sequence this phase took.
	consumedFrom, consumedTo int
	errs                     []string
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// runner runs a workload's load against a deployment.
type runner struct {
	d    *deployment
	spec workloadSpec
	seed uint64

	sequence []request // readCold
	next     atomic.Int64
	set      []request // readSet

	gen *batchGen
}

func newRunner(d *deployment, spec workloadSpec, p pools, seed uint64) *runner {
	dr := &runner{d: d, spec: spec, seed: seed, gen: newBatchGen(seed, probeMix)}
	if spec.mode == readCold {
		dr.sequence = p.coldSequence(seed)
	} else {
		dr.set = p.workingSet(seed, spec.setSize)
	}
	return dr
}

// warm verifies the working set once over HTTP, so the timed phase starts
// with it cached.
func (dr *runner) warm() error {
	cl := newHTTPClient()
	defer cl.close()
	for _, r := range dr.set {
		if _, err := cl.verify(dr.d.leaderURL, r, 0); err != nil {
			return fmt.Errorf("warm %s: %w", r.id, err)
		}
	}
	return nil
}

// phase runs ld for dur: the readers, the open-loop writer with its lag
// probe, and the read-your-writes prober.
func (dr *runner) phase(dur time.Duration, ld load) *phaseResult {
	res := &phaseResult{consumedFrom: int(dr.next.Load())}
	var mu sync.Mutex // guards res across the goroutines below
	start := time.Now()
	end := start.Add(dur)

	probes := make(chan probe, 4096)    // one per table batch; far above a phase's writes
	lags := make(chan lagSample, 16384) // one per batch; far above a phase's writes
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		dr.lagProbe(lags, res, &mu)
	}()
	go func() {
		defer wg.Done()
		dr.prober(probes, res, &mu)
	}()
	var lastDone atomic.Int64
	lastDone.Store(start.UnixNano())
	for c := 0; c < ld.readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			dr.reader(c, end, res, &mu, &lastDone)
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(lags)
		defer close(probes)
		if ld.writeRate > 0 {
			dr.writer(start, end, ld, probes, lags, res, &mu)
		}
	}()
	wg.Wait()
	res.wall = time.Duration(lastDone.Load() - start.UnixNano())
	res.consumedTo = int(dr.next.Load())
	return res
}

// lagProbe waits, write by write, for the follower to apply each
// acknowledged version.
func (dr *runner) lagProbe(lags <-chan lagSample, res *phaseResult, mu *sync.Mutex) {
	var visible, afterAck []float64
	for s := range lags {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := dr.d.follower.Pipeline().WaitFresh(ctx, s.version)
		now := time.Now()
		cancel()
		if err != nil {
			mu.Lock()
			res.fail("follower catch-up to %d: %v", s.version, err)
			mu.Unlock()
			visible = append(visible, failedMs)
			afterAck = append(afterAck, failedMs)
			continue
		}
		visible = append(visible, ms(now.Sub(s.due)))
		afterAck = append(afterAck, ms(now.Sub(s.ack)))
	}
	mu.Lock()
	res.visibleMs, res.afterAckMs = visible, afterAck
	mu.Unlock()
}

// pick returns reader c's next object, or false once a cold sequence is
// used up.
func (dr *runner) pick(rng *rand.Rand) (request, bool) {
	if dr.spec.mode != readCold {
		return dr.set[rng.IntN(len(dr.set))], true
	}
	i := int(dr.next.Add(1) - 1)
	if i >= len(dr.sequence) {
		return request{}, false
	}
	return dr.sequence[i], true
}

// merge adds one reader's samples to the phase result.
func merge(res *phaseResult, mu *sync.Mutex, lastDone *atomic.Int64, lat [2][]float64, verifies, attempted int) {
	now := time.Now().UnixNano()
	mu.Lock()
	defer mu.Unlock()
	for k := range lat {
		res.latMs[k] = append(res.latMs[k], lat[k]...)
	}
	res.verifies += verifies
	res.attempted += attempted
	if now > lastDone.Load() {
		lastDone.Store(now)
	}
}

// reader is a closed-loop client: it sends its next verification as soon
// as the previous one is answered.
func (dr *runner) reader(c int, end time.Time, res *phaseResult, mu *sync.Mutex, lastDone *atomic.Int64) {
	cl := newHTTPClient()
	defer cl.close()
	rng := rand.New(rand.NewPCG(dr.seed, uint64(100+c)))
	var lat [2][]float64
	verifies, attempted := 0, 0
	for time.Now().Before(end) {
		r, ok := dr.pick(rng)
		if !ok {
			mu.Lock()
			res.fail("cold sequence exhausted after %d objects", len(dr.sequence))
			mu.Unlock()
			break
		}
		t0 := time.Now()
		_, err := cl.verify(dr.d.leaderURL, r, 0)
		attempted++
		if err != nil {
			lat[r.kind] = append(lat[r.kind], failedMs)
			mu.Lock()
			res.fail("verify %s: %v", r.id, err)
			mu.Unlock()
			continue
		}
		verifies++
		lat[r.kind] = append(lat[r.kind], ms(time.Since(t0)))
	}
	merge(res, mu, lastDone, lat, verifies, attempted)
}

// prober checks each just-acknowledged table: a claim about one of its
// rows must verify as Verified on the leader, and on the follower when the
// request carries the acknowledged version as its freshness token. Probes
// count as operations but stay out of the latency distributions.
func (dr *runner) prober(probes <-chan probe, res *phaseResult, mu *sync.Mutex) {
	cl := newHTTPClient()
	defer cl.close()
	for p := range probes {
		lead, err := cl.verify(dr.d.leaderURL, p.req, 0)
		if err == nil && lead.Verdict != verify.Verified.String() {
			err = fmt.Errorf("leader verdict %s", lead.Verdict)
		}
		fol, ferr := cl.verify(dr.d.followerURL, p.req, p.version)
		if ferr == nil && fol.Verdict != verify.Verified.String() {
			ferr = fmt.Errorf("follower verdict %s", fol.Verdict)
		}
		mu.Lock()
		res.attempted += 2
		res.ryw++
		for _, e := range []error{err, ferr} {
			if e != nil {
				res.rywFailed++
				res.fail("read-your-writes %s at version %d: %v", p.req.id, p.version, e)
			}
		}
		mu.Unlock()
	}
}

func (dr *runner) writer(start, end time.Time, ld load, probes chan<- probe, lags chan<- lagSample, res *phaseResult, mu *sync.Mutex) {
	cl := newHTTPClient()
	defer cl.close()
	interval := time.Duration(float64(time.Second) / ld.writeRate)
	var sent []batch
	out := openLoop(wallClock{}, start, end, interval, func(i int) bool {
		b := dr.gen.next()
		v, err := cl.ingest(dr.d.leaderURL, b.items)
		if err != nil {
			mu.Lock()
			res.fail("ingest batch: %v", err)
			mu.Unlock()
			return false
		}
		ack := time.Now()
		sent = append(sent, b)
		select {
		case lags <- lagSample{due: start.Add(time.Duration(i) * interval), ack: ack, version: v}:
		default:
			mu.Lock()
			res.fail("lag probe queue full")
			mu.Unlock()
		}
		if b.probe != nil {
			select {
			case probes <- probe{req: *b.probe, version: v}:
			default:
				mu.Lock()
				res.fail("read-your-writes queue full")
				mu.Unlock()
			}
		}
		return true
	})
	mu.Lock()
	res.writes = out
	res.sent = sent
	res.attempted += out.Attempted
	mu.Unlock()
}
