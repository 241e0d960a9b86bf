package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// fabricWorkers is the number of in-process fabric.Workers per job.
const fabricWorkers = 2

// fabricSpec is fabric-sweep job k: a timing-objective grid over all four
// platform variants with the exhaustive baseline, split into four shards
// for the two workers. Every job covers fresh scenarios (job k starts at
// scenario seed seed<<20 + k*N), so a run averages over many tasksets and
// each job is checked against its own memory-only sweep. Job -1 is the
// untimed warm-up.
func fabricSpec(seed int64, k int, size string) fabric.JobSpec {
	n := 32
	if size == "smoke" {
		n = 8
	}
	return fabric.JobSpec{
		N: n, Apps: 3, Seed: seed<<20 + int64(k*n), MaxM: 6, Starts: 2, Tol: 0.01,
		Platforms: 4, Exhaustive: true, Shards: 4,
	}
}

// cluster is one coordinator in the benchmark process: a disk store, a
// SyncAlways journal attached through Manager.Recover, and the fabric and
// httpstore handlers on a loopback listener. The store does not fsync
// each put: with SyncPuts the job time followed this machine's disk
// latency, and ten runs of one seed spread by a third.
type cluster struct {
	dir     string
	st      *store.Store
	journal *fabric.Journal
	srv     *http.Server
	url     string
	served  chan error
}

func openCluster(workDir string, tr *tracer) (*cluster, error) {
	dir, err := os.MkdirTemp(workDir, "fabric-")
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	if err := c.open(tr); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) open(tr *tracer) error {
	var err error
	if c.st, err = store.Open(filepath.Join(c.dir, "store")); err != nil {
		return err
	}
	if c.journal, err = fabric.OpenJournal(filepath.Join(c.dir, "journal"), fabric.JournalOptions{Sync: fabric.SyncAlways}); err != nil {
		return err
	}
	m := fabric.NewManager()
	if _, err := m.Recover(c.journal); err != nil {
		return err
	}
	var be store.Backend = c.st
	if tr != nil {
		be = timedBackend{be, tr}
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/store/", httpstore.Handler(be))
	mux.Handle("/v1/shards/", fabric.Handler(m))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.url = "http://" + ln.Addr().String()
	c.srv = &http.Server{Handler: mux}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	return nil
}

// close stops the server, waits for it, closes the journal and removes the
// cluster's directory.
func (c *cluster) close() error {
	var errs []error
	if c.srv != nil {
		errs = append(errs, c.srv.Close())
		if err := <-c.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if c.journal != nil {
		errs = append(errs, c.journal.Close())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// job submits spec, runs the workers until they drain, and renders the
// report by resuming every scenario from the coordinator's store.
func (c *cluster) job(spec fabric.JobSpec, scenarios []engine.Scenario, hc *http.Client, tr *tracer) ([]*engine.Result, error) {
	cl := fabric.NewClientWithOptions(c.url, fabric.ClientOptions{HTTPClient: hc})
	id, err := cl.Submit(spec)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, fabricWorkers)
	for k := 0; k < fabricWorkers; k++ {
		// A worker that finds no free shard sleeps Poll to 3*Poll before it
		// looks again; the default (half the 10 s lease TTL) would dwarf a
		// job of a few seconds.
		w := &fabric.Worker{Coordinator: c.url, Name: fmt.Sprintf("w%d", k), Poll: 5 * time.Millisecond, Drain: true, HTTPClient: hc}
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, errs[k] = w.Run(ctx)
		}(k)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	st, err := cl.Status(id)
	if err != nil {
		return nil, err
	}
	if !st.Complete {
		return nil, fmt.Errorf("job %s drained with %d of %d shards done", id, st.Done, len(st.Shards))
	}
	t := time.Now()
	hs := httpstore.NewWithOptions(c.url, httpstore.Options{HTTPClient: hc})
	res, err := engine.Sweep(engine.Config{Workers: runtime.NumCPU(), Store: hs, Resume: true}, scenarios)
	tr.record("fabric.render", id, -1, t, time.Now())
	return res, err
}

func runFabricSweep(opt options) (*outcome, error) {
	o := newOutcome()
	workDir := filepath.Join(opt.root, ".bench_build", "work")
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	var (
		setups  []float64
		peaks   []float64
		digests = map[int][]string{} // rendered digests by job index
		stats   clusterStats
	)
	defer http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	syscall.Sync() // start from a clean disk, whatever ran before
	// job runs job k on a fresh coordinator and returns its set-up time
	// (grid expansion and coordinator start) and its latency, submit to
	// render.
	job := func(k int, hc *http.Client, tr *tracer) (setup, latency float64, err error) {
		t := time.Now()
		spec := fabricSpec(opt.seed, k, opt.size)
		scenarios, err := specScenarios(spec)
		if err != nil {
			return 0, 0, err
		}
		c, err := openCluster(workDir, tr)
		if err != nil {
			return 0, 0, err
		}
		setup = time.Since(t).Seconds()
		t = time.Now()
		res, err := c.job(spec, scenarios, hc, tr)
		latency = ms(time.Since(t))
		if err == nil {
			resumed := 0
			for _, r := range res {
				if r != nil && r.Resumed {
					resumed++
				}
			}
			o.checkf(resumed == len(res), "job %d: render resumed %d of %d scenarios from the store", k, resumed, len(res))
			digests[k] = append(digests[k], digest(render(res)))
			if tr != nil {
				stats.add(c)
			}
		}
		if cerr := c.close(); err == nil {
			err = cerr
		}
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		// Flush the deleted store to disk now, so its write-back does not
		// land on the next job's set-up and fsyncs.
		syscall.Sync()
		return setup, latency, err
	}
	// One untimed job first: the first job of a run runs up to three times
	// faster or slower than the ones after it, depending on what the file
	// system last did (another workload, or another run's deleted stores).
	if _, _, err := job(-1, nil, nil); err != nil {
		return nil, err
	}
	// phase runs jobs 0, 1, ... until budget is spent; the traced phase
	// reruns the untraced phase's jobs.
	phase := func(tr *tracer) ([]float64, error) {
		var hc *http.Client
		if tr != nil {
			hc = &http.Client{Transport: timedTransport{http.DefaultTransport, tr}}
		}
		var lat []float64
		rss := startRSS()
		defer func() { peaks = append(peaks, rss.close()...) }()
		start := time.Now()
		for k := 0; k == 0 || time.Since(start) < budget; k++ {
			setup, latency, err := job(k, hc, tr)
			if err != nil {
				return nil, err
			}
			rss.cut()
			setups = append(setups, setup)
			lat = append(lat, latency)
			o.attempted += fabricSpec(opt.seed, k, opt.size).N
		}
		return lat, nil
	}
	lat, err := phase(nil)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	var latT []float64
	if opt.trace {
		tr = newTracer()
		if latT, err = phase(tr); err != nil {
			return nil, err
		}
	}
	// Every job must render what a memory-only sweep of its grid renders.
	for k, got := range digests {
		scenarios, err := specScenarios(fabricSpec(opt.seed, k, opt.size))
		if err != nil {
			return nil, err
		}
		ref, err := engine.Sweep(engine.Config{Workers: runtime.NumCPU()}, scenarios)
		if err != nil {
			return nil, err
		}
		want := digest(render(ref))
		for _, d := range got {
			o.checkf(d == want, "job %d rendered digest %s, memory-only sweep %s", k, d, want)
		}
	}
	if !opt.trace {
		o.metrics["setup_s"] = median(setups)
		o.metrics["ops_per_s"] = float64(o.attempted) / (sum(lat) / 1e3)
		o.metrics["latency_p50_ms"] = median(lat)
		o.metrics["latency_p99_ms"] = quantile(lat, 0.99)
		o.metrics["peak_rss_mb"] = median(peaks)
		o.samples["latency"] = len(lat)
		o.samples["setup"] = len(setups)
		return o, nil
	}

	// The tasksets the workers analyzed in the first job, timed from
	// outside by replaying their generation.
	scenarios, err := specScenarios(fabricSpec(opt.seed, 0, opt.size))
	if err != nil {
		return nil, err
	}
	for _, scn := range scenarios {
		t := time.Now()
		if _, _, err := engine.RandomTaskset(rand.New(rand.NewSource(scn.Seed)), scn); err != nil {
			return nil, err
		}
		tr.record("wcet.taskset", scn.Name, -1, t, time.Now())
	}
	taskset := tr.durations("wcet.taskset")
	o.metrics["wcet.taskset_ms"] = median(taskset)
	o.metrics["wcet.tasksets"] = float64(len(taskset))
	for _, m := range []struct{ metric, span string }{
		{"store.put_ms", "store.put"}, {"httpstore.put_ms", "httpstore.put"},
	} {
		d := tr.durations(m.span)
		o.metrics[m.metric+"_p50"] = median(d)
		o.metrics[m.metric+"_p99"] = quantile(d, 0.99)
		o.samples[m.span] = len(d)
	}
	for _, m := range []struct{ metric, span string }{
		{"store.get_ms_p50", "store.get"}, {"httpstore.get_ms_p50", "httpstore.get"},
		{"fabric.acquire_ms_p50", "fabric.acquire"}, {"fabric.complete_ms_p50", "fabric.complete"},
		{"fabric.render_ms", "fabric.render"},
	} {
		d := tr.durations(m.span)
		o.metrics[m.metric] = median(d)
		o.samples[m.span] = len(d)
	}
	n := float64(len(latT))
	o.metrics["store.puts"] = float64(stats.store.Puts) / n
	o.metrics["store.gets"] = float64(stats.store.Gets) / n
	o.metrics["store.hit_ratio"] = ratio(float64(stats.store.Hits), float64(stats.store.Gets))
	o.metrics["store.fsyncs"] = float64(stats.store.Fsyncs) / n
	o.metrics["journal.appends"] = float64(stats.journal.Appends) / n
	o.metrics["journal.fsyncs"] = float64(stats.journal.Fsyncs) / n
	o.metrics["httpstore.requests"] = float64(tr.counter("httpstore.requests")) / n
	o.metrics["resilience.retries"] = float64(tr.counter("resilience.retries"))
	o.metrics["trace.overhead_frac"] = median(latT)/median(lat) - 1
	o.metrics["failed_frac"] = 0
	return o, tr.write(opt.traceOut)
}

func specScenarios(spec fabric.JobSpec) ([]engine.Scenario, error) {
	grid, err := spec.Grid()
	if err != nil {
		return nil, err
	}
	return grid.Scenarios()
}

// clusterStats sums the store and journal counters of finished jobs (each
// job has a fresh coordinator, so its counters are the job's own).
type clusterStats struct {
	store   store.Stats
	journal fabric.JournalStats
}

func (s *clusterStats) add(c *cluster) {
	ss, js := c.st.Stats(), c.journal.Stats()
	s.store.Puts += ss.Puts
	s.store.Gets += ss.Gets
	s.store.Hits += ss.Hits
	s.store.Fsyncs += ss.Fsyncs
	s.journal.Appends += js.Appends
	s.journal.Fsyncs += js.Fsyncs
}

// timedBackend is the store.Backend handed to httpstore.Handler in the
// traced run: it times every disk-store call.
type timedBackend struct {
	store.Backend
	tr *tracer
}

func (b timedBackend) Get(key string) ([]byte, bool) {
	t := time.Now()
	v, ok := b.Backend.Get(key)
	b.tr.record("store.get", key, -1, t, time.Now())
	return v, ok
}

func (b timedBackend) Put(key string, payload []byte) {
	t := time.Now()
	b.Backend.Put(key, payload)
	b.tr.record("store.put", key, -1, t, time.Now())
}

// timedTransport is the http.RoundTripper of the workers' and the submitting
// clients in the traced run: it times every lease call and store request,
// and counts attempts that failed transiently (each one is retried).
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	name := ""
	switch p := req.URL.Path; {
	case strings.HasPrefix(p, "/v1/store/"):
		t.tr.count("httpstore.requests")
		name = "httpstore." + strings.ToLower(req.Method)
	case p == "/v1/shards/acquire":
		name = "fabric.acquire"
	case p == "/v1/shards/complete":
		name = "fabric.complete"
	}
	if name != "" {
		t.tr.record(name, req.URL.Path, -1, start, time.Now())
	}
	if err != nil || resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		t.tr.count("resilience.retries")
	}
	return resp, err
}
