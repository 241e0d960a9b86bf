package fabric

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/store"
	"repro/internal/store/httpstore"
)

// TestClusterChaosMatrix drives the full distributed sweep through a matrix
// of seeded store-plane fault regimes — sustained 500s, corrupted read
// payloads, added latency with background flakiness, and a mid-run
// blackhole burst where the store stops answering at all — and requires the
// assembled results to stay bit-identical to the single-process baseline in
// every cell. The store is the only plane injected here: every store fault
// must degrade to a retry, a recompute, or a dropped best-effort write, so
// the lease protocol keeps converging and the numbers cannot drift.
// (Control-plane faults have dedicated tests: the worker resilience suite
// and the cmd/sweep chaos golden.)
func TestClusterChaosMatrix(t *testing.T) {
	scenarios, want := baseline(t, clusterSpec)
	cases := []struct {
		name string
		cfg  chaos.Config
		// burst > 0 blackholes that many requests (aborted with no
		// response) from the first checkpoint PUT on — mid-run, once a
		// worker has finished its first scenario, however little store
		// traffic the run makes.
		burst int
	}{
		{name: "errors-30pct", cfg: chaos.Config{Seed: 101, ErrRate: 0.3}},
		{name: "corrupt-reads-20pct", cfg: chaos.Config{Seed: 102, CorruptRate: 0.2}},
		{name: "slow-and-flaky", cfg: chaos.Config{Seed: 103, ErrRate: 0.1, Latency: 2 * time.Millisecond}},
		{name: "blackhole-burst", cfg: chaos.Config{Seed: 104, ErrRate: 0.1}, burst: 50},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			mw := chaos.NewMiddleware(httpstore.Handler(st), tc.cfg)
			storePlane := http.Handler(mw)
			if tc.burst > 0 {
				var armed atomic.Bool
				storePlane = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/store/r/") && armed.CompareAndSwap(false, true) {
						mw.Blackhole(tc.burst)
					}
					mw.ServeHTTP(w, r)
				})
			}
			mux := http.NewServeMux()
			mux.Handle("/v1/shards/", Handler(NewManager()))
			mux.Handle("/v1/store/", storePlane)
			srv := httptest.NewServer(mux)
			defer srv.Close()

			cl := NewClient(srv.URL, nil)
			jobID, err := cl.Submit(clusterSpec)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, name := range []string{tc.name + "-a", tc.name + "-b"} {
				wg.Add(1)
				go func(name string) {
					defer wg.Done()
					w := &Worker{Coordinator: srv.URL, Name: name, TTL: time.Second, Drain: true}
					if _, err := w.Run(context.Background()); err != nil {
						t.Errorf("worker %s: %v", name, err)
					}
				}(name)
			}
			wg.Wait()
			awaitComplete(t, cl, jobID, 10*time.Second)

			// Assembly reads through the same chaotic store plane: failed or
			// mangled checkpoint reads degrade to recomputing that scenario.
			got := assemble(t, srv.URL, scenarios)
			mustMatch(t, tc.name+" vs single-process", got, want)

			s := mw.Stats()
			if s.Ops == 0 {
				t.Fatal("chaos middleware saw no traffic")
			}
			if tc.cfg.ErrRate > 0 && s.Errors == 0 {
				t.Fatalf("chaos stats %+v: ErrRate %v never fired", s, tc.cfg.ErrRate)
			}
			if tc.cfg.CorruptRate > 0 && s.Corruptions == 0 {
				t.Fatalf("chaos stats %+v: CorruptRate %v never fired", s, tc.cfg.CorruptRate)
			}
			if tc.burst > 0 && s.Blackholed == 0 {
				t.Fatalf("chaos stats %+v: blackhole burst never fired", s)
			}
		})
	}
}
