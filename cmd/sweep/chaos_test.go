package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fabric"
	"repro/internal/resilience"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// TestRemoteSweepChaosGolden is the chaos acceptance check: the golden grid
// executed by three workers against a coordinator whose store plane fails
// 30% of requests, goes completely dark (aborted connections) for a burst
// in the middle of the sweep, and whose status endpoint eats the driver's
// entire first poll — and the report on stdout is still byte-identical to
// testdata/store_sweep.golden. Every fault degrades to recomputation or a
// dropped best-effort write, never to wrong bytes: that is the resilience
// layer's core invariant.
func TestRemoteSweepChaosGolden(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Store plane: 30% seeded 500s, with a blackhole burst armed mid-sweep
	// by the first checkpoint PUT — the first scenario to finish, an event
	// every run has however little store traffic it makes. Blackholed
	// requests abort the connection without a response — the coordinator
	// has vanished, not erred — which drives the checkpointing worker's
	// store breaker open and exercises the degraded compute-without-
	// checkpoints path. The burst is one breaker's worth of aborts; that
	// worker's own retries exhaust it before the workers finish, so the
	// assembly reads below meet the seeded 500s instead.
	storeMW := chaos.NewMiddleware(httpstore.Handler(st), chaos.Config{Seed: 20260807, ErrRate: 0.3})
	var armed atomic.Bool
	storePlane := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/store/r/") && armed.CompareAndSwap(false, true) {
			storeMW.Blackhole(resilience.DefaultBreakerThreshold)
		}
		storeMW.ServeHTTP(w, r)
	})

	// Control plane: the lease protocol itself stays up, but the driver's
	// per-job status endpoint fails its first four requests — one entire
	// client-side retry budget, i.e. one failed poll — pinning that a poll
	// failure followed by recovery reads as "progressing", not
	// "unreachable".
	var statusFails atomic.Int64
	inner := fabric.Handler(fabric.NewManager())
	controlPlane := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/shards/jobs/") {
			if statusFails.Add(1) <= 4 {
				http.Error(w, "status plane down", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})

	mux := http.NewServeMux()
	mux.Handle("/v1/shards/", controlPlane)
	mux.Handle("/v1/store/", storePlane)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	cl := fabric.NewClient(srv.URL, nil)
	if _, err := cl.Submit(fabric.JobSpec{N: 6, Seed: 42, Exhaustive: true, Shards: 3}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, name := range []string{"c1", "c2", "c3"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			w := &fabric.Worker{Coordinator: srv.URL, Name: name, TTL: time.Second, Drain: true}
			if _, err := w.Run(context.Background()); err != nil {
				t.Errorf("worker %s: %v", name, err)
			}
		}(name)
	}
	wg.Wait()

	// Assembly runs through the same chaotic store: reads that fail (or land
	// in what is left of the blackhole budget) degrade to recomputing that
	// scenario, which is deterministic, so the table cannot drift.
	out := sweepOut(t, "-remote", srv.URL, "-shards", "3",
		"-n", "6", "-seed", "42", "-exhaustive", "-workers", "2")
	golden := filepath.Join("testdata", "store_sweep.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Errorf("chaos output diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, out, want)
	}

	// The faults must actually have fired, or this test proves nothing.
	cs := storeMW.Stats()
	if cs.Errors == 0 || cs.Blackholed == 0 {
		t.Fatalf("chaos stats %+v: expected injected errors and a blackhole burst", cs)
	}
	if n := statusFails.Load(); n < 4 {
		t.Fatalf("status poll saw %d requests; the first driver poll was supposed to fail entirely", n)
	}
}

// TestRemoteUnreachableFailsFast is the regression test for the -remote
// wait loop: a coordinator that accepts the job and then drops off the
// network entirely must surface as an "unreachable" error after a bounded
// number of consecutive failed polls — not burn the full -remote-timeout
// that is reserved for slow-but-progressing jobs.
func TestRemoteUnreachableFailsFast(t *testing.T) {
	// The coordinator accepts the submit, then its status plane goes dark:
	// every poll fails, through the client's full retry budget, forever.
	inner := fabric.Handler(fabric.NewManager())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/shards/jobs/") {
			panic(http.ErrAbortHandler) // connection dropped, no response
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	spec := fabric.JobSpec{N: 6, Seed: 42, Exhaustive: true, Shards: 3}
	grid, err := spec.Grid()
	if err != nil {
		t.Fatal(err)
	}
	scenarios, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}

	generous := 10 * time.Minute
	start := time.Now()
	_, err = runRemote(srv.URL, spec, scenarios, 2, 10*time.Millisecond, generous)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("runRemote returned success against a dead coordinator")
	}
	if !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("error %q does not name unreachability", err)
	}
	if elapsed >= generous/2 {
		t.Fatalf("fail-fast took %v; the unreachable path must not consume the overall timeout", elapsed)
	}
}
