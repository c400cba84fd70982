package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/datalake"
	"repro/internal/server"
	"repro/internal/workload"
)

// seedBatch is how many items one seeding AddBatch call carries.
const seedBatch = 256

// deployment is the system under test: a durable leader and an in-process
// follower, each behind the real server.New handler stack on a loopback
// listener, plus an in-memory library system over the same corpus that
// the benchmark uses as its reference and for the traced run.
type deployment struct {
	dir      string
	corpus   *workload.Corpus
	leader   *verifai.System
	follower *verifai.System
	lib      *verifai.System

	leaderURL, followerURL string
	servers                []*http.Server
}

// options is the configuration every system of the benchmark runs with:
// the defaults of `verifai serve`, which reason exactly over evidence.
func options() verifai.Options { return verifai.ExactOptions(corpusSeed) }

// setup builds a deployment in dir: it generates the corpus, seeds a durable
// leader through its batch write path and checkpoints it, serves it, and
// bootstraps a follower from the leader's checkpoint over HTTP, waiting for
// it to catch up. The library system is not part of it: it is the
// benchmark's own reference, built once by addLibrary.
func setup(dir string) (d *deployment, err error) {
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if d.corpus, err = workload.GenerateLake(corpusConfig()); err != nil {
		return d, fmt.Errorf("generate corpus: %w", err)
	}
	open := verifai.OpenOptions{Options: options(), Sync: "interval"}
	if d.leader, err = verifai.Open(filepath.Join(dir, "leader"), open); err != nil {
		return d, fmt.Errorf("open leader: %w", err)
	}
	if err = seed(d.leader, d.corpus.Lake); err != nil {
		return d, err
	}
	if _, err = d.leader.Checkpoint(); err != nil {
		return d, fmt.Errorf("checkpoint leader: %w", err)
	}
	wlog, floor, tar, format, _ := d.leader.ChangeFeed()
	leaderOpts := []server.Option{
		server.WithObs(d.leader.Metrics()),
		server.WithDurability(func() verifai.DurabilityStats { st, _ := d.leader.Durability(); return st }, d.leader.Checkpoint),
		server.WithChangeFeed(server.ChangeFeedConfig{Log: wlog, Floor: floor, CheckpointTar: tar, Format: format}),
	}
	if d.leaderURL, err = d.serve(server.New(d.leader.Pipeline(), leaderOpts...)); err != nil {
		return d, err
	}
	if d.follower, err = verifai.OpenFollower(filepath.Join(dir, "follower"), d.leaderURL, open); err != nil {
		return d, fmt.Errorf("open follower: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err = d.follower.Pipeline().WaitFresh(ctx, d.leader.LakeVersion()); err != nil {
		return d, fmt.Errorf("follower catch-up: %w", err)
	}
	followerOpts := []server.Option{server.WithObs(d.follower.Metrics()), server.WithFollower(d.leaderURL)}
	if d.followerURL, err = d.serve(server.New(d.follower.Pipeline(), followerOpts...)); err != nil {
		return d, err
	}
	return d, nil
}

// addLibrary indexes the in-memory library system over the corpus. It
// recomputes every verification, so the traced run and the library
// timings measure the pipeline rather than a cache.
func (d *deployment) addLibrary() error {
	opts := options()
	opts.Pipeline = core.DefaultPipelineConfig()
	opts.Pipeline.ResultCache = 0
	lib, err := verifai.NewSystem(d.corpus.Lake, opts)
	if err != nil {
		return fmt.Errorf("library system: %w", err)
	}
	d.lib = lib
	return nil
}

// seed copies the corpus into sys through its batch write path: sources,
// then tables, documents and triples in catalog order.
func seed(sys *verifai.System, src *datalake.Lake) error {
	for _, s := range src.Sources() {
		if err := sys.Pipeline().Lake().AddSource(s); err != nil {
			return fmt.Errorf("seed source %s: %w", s.ID, err)
		}
	}
	var items []datalake.BatchItem
	for _, id := range src.TableIDs() {
		t, _ := src.Table(id)
		items = append(items, datalake.BatchItem{Table: t})
	}
	for _, id := range src.DocIDs() {
		doc, _ := src.Document(id)
		items = append(items, datalake.BatchItem{Doc: doc})
	}
	for _, tr := range src.Triples() {
		tr := tr
		items = append(items, datalake.BatchItem{Triple: &tr})
	}
	for len(items) > 0 {
		n := min(seedBatch, len(items))
		res, err := sys.AddBatch(items[:n])
		if err != nil {
			return fmt.Errorf("seed: %w", err)
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("seed item: %w", r.Err)
			}
		}
		items = items[n:]
	}
	return nil
}

// serve starts h on a loopback listener and returns its base URL.
func (d *deployment) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	d.servers = append(d.servers, srv)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the follower's stream first, then the listeners (which ends
// the change-feed connection), then the systems, and removes the data.
func (d *deployment) close() {
	if d.follower != nil {
		_ = d.follower.Close()
	}
	for _, srv := range d.servers {
		_ = srv.Close()
	}
	if d.leader != nil {
		_ = d.leader.Close()
	}
	if d.lib != nil {
		_ = d.lib.Close()
	}
	_ = os.RemoveAll(d.dir)
}

// setupRepeated builds the deployment reps times, keeping the last one,
// and returns the time each build took; the median is the run's setup_s.
func setupRepeated(dir string, reps int) (*deployment, []float64, error) {
	var times []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		d, err := setup(filepath.Join(dir, fmt.Sprintf("deploy-%d", i)))
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == reps-1 {
			if err := d.addLibrary(); err != nil {
				d.close()
				return nil, nil, err
			}
			return d, times, nil
		}
		d.close()
		// Start the next repetition from the same state: no garbage from
		// this one left to collect, no dirty pages left to write back.
		runtime.GC()
		syscall.Sync()
	}
	return nil, nil, errors.New("no set-up repetitions")
}
