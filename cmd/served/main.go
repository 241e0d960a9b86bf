// Command served exposes the cache-aware co-design pipeline as an
// HTTP/JSON service backed by the persistent result store: schedule
// evaluations, randomized sweeps, and the paper's tables become runtime
// queries instead of batch recomputation (the feedback-scheduling framing
// of Xia et al., see PAPERS.md).
//
// Endpoints:
//
//	GET  /healthz                     liveness
//	GET  /readyz                      readiness (store write probe)
//	GET  /statsz                      per-tier cache hit rates, store traffic, resilience gauges
//	GET  /v1/design?schedule=3,2,3[&schedule=1,1,1][&ways=2,1,1][&budget=tiny]
//	POST /v1/design                   {"schedules": ["3,2,3"], "ways": "2,1,1", "budget": "tiny"}
//	GET  /v1/sweep?n=10[&apps=3][&seed=1][&objective=timing][&exhaustive=1]
//	                    [&jitter=0.2&arrival_seed=7&arrival_cycles=64]      sporadic releases
//	                    [&l2_lines=512&l2_ways=4&l2_hit=10&l2_exclusive=1]  L1+L2 hierarchy
//	POST /v1/sweep                    {"n": 10, "apps": 3, "seed": 1, ...}
//	GET  /v1/table/{I|II|III|IV}      rendered paper tables (III/IV accept budget/maxm/tol)
//	GET/PUT /v1/store/{key}           the persistent store over HTTP (requires -store)
//	POST /v1/shards/...               distributed-sweep lease protocol (requires -store)
//	GET/POST /v1/admin/scrub[?repair=1]  store fsck: classify (and quarantine) bad records
//
// Usage:
//
//	served [-addr :8080] [-store DIR] [-budget tiny]              # coordinator
//	       [-journal DIR] [-journal-fsync always] [-store-sync]   # durability
//	       [-max-queue N] [-request-timeout 30s]                  # degradation bounds
//	served -worker -coordinator URL [-name ID] [-lease-ttl 10s]   # cluster worker
//
// With -journal the coordinator write-ahead logs job submissions and shard
// completions; a restarted coordinator replays the journal and carries on —
// workers re-acquire in-flight leases through TTL expiry, and no shard the
// journal recorded as done is ever re-executed. /readyz (and the shard
// protocol) answer 503 while replay is in progress.
//
// Degradation: with -max-queue set, compute requests arriving while the
// executor queue is deeper than N are shed with 429 + Retry-After instead
// of queueing unboundedly; with -request-timeout set, a compute request
// that outlives the deadline answers 503 + Retry-After while the
// computation finishes into the caches — the retried request lands warm.
// /readyz proves the store round-trips a write (load balancers gate on
// it); /healthz stays pure liveness. Both shed and timeout counts are
// exported on /statsz.
//
// With -store the service doubles as a sweep coordinator: it serves the
// store over /v1/store/ and leases sweep shards over /v1/shards/ to worker
// processes (served -worker), which publish every result back into the
// coordinator's store; cmd/sweep -remote submits jobs and assembles the
// output (see internal/fabric).
//
// Requests batch naturally: /v1/design accepts many schedules per call,
// evaluated concurrently. Concurrent identical requests coalesce through
// the same singleflight evaluation caches the sweep engine uses
// (internal/engine/evalcache), and with -store every design outcome,
// scenario checkpoint, and rendered table persists across restarts — a
// warm service answers repeat queries from disk without recomputing
// (visible as disk-tier hits in /statsz). Timing-sweep points are cheaper
// to recompute than to store, so /v1/sweep persists its checkpoints only
// and reports disk_hits 0 on timing rows. Shutdown is
// graceful: SIGINT/SIGTERM drains in-flight requests before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/evalcache"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/store"
	"repro/internal/store/httpstore"
	"repro/internal/wcet"
)

var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, errUsage) {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("served", flag.ContinueOnError)
	fs.SetOutput(stdout)
	addr := fs.String("addr", ":8080", "listen address")
	storeDir := fs.String("store", "", "persist results to this directory (empty: memory only)")
	budget := fs.String("budget", "tiny", "default design budget: tiny | quick | paper | deep")
	worker := fs.Bool("worker", false, "run as a cluster worker instead of serving")
	coordinator := fs.String("coordinator", "", "coordinator base URL (worker mode)")
	name := fs.String("name", "", "worker identity for shard leases (default host:pid)")
	leaseTTL := fs.Duration("lease-ttl", 0, "shard lease TTL requested from the coordinator (0 = coordinator default)")
	poll := fs.Duration("poll", 0, "worker idle/retry poll interval (0 = TTL/2)")
	drain := fs.Bool("drain", false, "worker exits once the coordinator has no work left")
	throttle := fs.Duration("throttle", 0, "worker pause between scenarios (rate-limits a shared box)")
	maxQueue := fs.Int("max-queue", 0, "shed compute requests (429) when the executor queue exceeds this depth (0 = never shed)")
	requestTimeout := fs.Duration("request-timeout", 0, "answer 503 when a compute request exceeds this deadline (0 = no deadline)")
	journalDir := fs.String("journal", "", "journal coordinator state to this directory (requires -store); jobs and done shards survive restarts")
	journalFsync := fs.String("journal-fsync", "always", "journal fsync policy: always | none")
	journalCompact := fs.Int("journal-compact", 1024, "compact the journal after this many appends (0 = never)")
	storeSync := fs.Bool("store-sync", false, "fsync every store record before publishing it (records survive power loss)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if !validBudget(*budget) {
		return fmt.Errorf("served: unknown budget %q", *budget)
	}
	// Crash-schedule injection (CHAOS_CRASH): lets the recovery test matrix
	// stage deterministic process deaths in both coordinator and workers.
	if _, err := chaos.ArmFromEnv(); err != nil {
		return err
	}
	if *worker {
		if *coordinator == "" {
			return fmt.Errorf("served: -worker requires -coordinator URL")
		}
		if *name == "" {
			host, _ := os.Hostname()
			*name = fmt.Sprintf("%s:%d", host, os.Getpid())
		}
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		w := &fabric.Worker{
			Coordinator: *coordinator, Name: *name,
			TTL: *leaseTTL, Poll: *poll, Drain: *drain, Throttle: *throttle,
			Log: stdout,
		}
		stats, err := w.Run(ctx)
		fmt.Fprintf(stdout, "worker %s: %d shard(s), %d scenario(s)\n", *name, stats.Shards, stats.Scenarios)
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		return nil
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.OpenWithOptions(*storeDir, store.Options{SyncPuts: *storeSync}); err != nil {
			return err
		}
	}
	srv := newServer(st, *budget)
	srv.maxQueue = *maxQueue
	srv.reqTimeout = *requestTimeout
	if *journalDir != "" {
		if st == nil {
			return fmt.Errorf("served: -journal requires -store (a journal without durable records recovers bookkeeping for results that no longer exist)")
		}
		var sync fabric.SyncPolicy
		switch *journalFsync {
		case "always":
			sync = fabric.SyncAlways
		case "none":
			sync = fabric.SyncNever
		default:
			return fmt.Errorf("served: unknown -journal-fsync %q (want always | none)", *journalFsync)
		}
		j, err := fabric.OpenJournal(*journalDir, fabric.JournalOptions{Sync: sync, CompactEvery: int64(*journalCompact)})
		if err != nil {
			return err
		}
		defer j.Close()
		srv.journal = j
		srv.replaying.Store(true)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.mux}
	storeDesc := "memory only"
	if st != nil {
		storeDesc = "store " + st.Root()
	}
	fmt.Fprintf(stdout, "served listening on %s (%s, default budget %s)\n", ln.Addr(), storeDesc, *budget)
	if srv.journal != nil {
		// Replay concurrently with serving: /healthz answers immediately,
		// while /readyz and the shard protocol hold 503 until the lease table
		// is rebuilt — retrying workers and drivers ride it out.
		go func() {
			stats, err := srv.shards.Recover(srv.journal)
			if err != nil {
				fmt.Fprintf(stdout, "served: journal recovery failed (staying not-ready): %v\n", err)
				return
			}
			srv.recovered.Store(&stats)
			srv.replaying.Store(false)
			fmt.Fprintf(stdout, "served: journal %s recovered %d job(s), %d done shard(s) from %d record(s)\n",
				srv.journal.Dir(), stats.Jobs, stats.DoneShards, stats.Records)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(stdout, "served: draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "served: shut down cleanly")
	return nil
}

func validBudget(name string) bool {
	switch name {
	case "tiny", "quick", "paper", "deep":
		return true
	}
	return false
}

// validTol accepts convergence tolerances the searches can actually use: a
// NaN/Inf tol poisons every comparison it reaches, and a non-positive one
// never converges.
func validTol(tol float64) bool {
	return tol > 0 && !math.IsInf(tol, 1)
}

// Store-key schemas of the service's own record kinds. Bump on incompatible
// payload changes; the keys then no longer match and old records age out as
// misses.
const (
	designNamespace = "served/design/v1/"
	tableNamespace  = "served/table/v1/"
)

// strKey adapts a plain string to the evalcache key contract.
type strKey string

func (k strKey) Key() string { return string(k) }

// server owns the shared caches: frameworks per budget (each framework
// memoizes full schedule evaluations), design summaries and rendered
// tables both two-tiered onto the store. All three coalesce concurrent
// identical requests.
type server struct {
	st            *store.Store // may be nil
	defaultBudget string
	start         time.Time
	mux           *http.ServeMux
	shards        *fabric.Manager // nil when no store: workers need /v1/store

	// Durability wiring (nil/false without -journal). While replaying, the
	// shard protocol and /readyz answer 503: granting leases from a
	// half-rebuilt table could hand out already-done shards.
	journal   *fabric.Journal
	replaying atomic.Bool
	recovered atomic.Pointer[fabric.RecoverStats]

	// Degradation bounds (zero = disabled), read per request so main and
	// tests set them after construction.
	maxQueue   int           // shed compute requests beyond this executor queue depth
	reqTimeout time.Duration // compute request deadline
	// queueDepth reports the executor queue depth the shed check reads
	// (injectable: load tests pin shedding without filling a real executor).
	queueDepth func() int64

	shed     atomic.Int64 // compute requests answered 429 by the shed check
	timeouts atomic.Int64 // compute requests answered 503 by the deadline
	probes   atomic.Int64 // /readyz write-probe sequence

	frameworks *evalcache.Cache[strKey, *core.Framework]
	designs    *evalcache.Cache[strKey, *designRecord]
	tables     *evalcache.Cache[strKey, string]
}

// backend returns the store as an evalcache.Backend, or a true nil
// interface when no store is configured (a typed-nil *store.Store inside a
// non-nil interface would defeat the cache's nil check).
func (s *server) backend() evalcache.Backend {
	if s.st == nil {
		return nil
	}
	return s.st
}

func newServer(st *store.Store, defaultBudget string) *server {
	s := &server{st: st, defaultBudget: defaultBudget, start: time.Now(), mux: http.NewServeMux()}
	s.queueDepth = func() int64 { return int64(parallel.Default().Stats().QueueDepth) }
	s.frameworks = evalcache.NewCache(0, func(k strKey) (*core.Framework, error) {
		return exp.DefaultFramework(exp.Budget(string(k)))
	})
	s.designs = evalcache.NewTiered(0, s.evalDesign, s.backend(), designNamespace, designCodec())
	s.tables = evalcache.NewTiered(0, s.renderTable, s.backend(), tableNamespace, evalcache.Codec[string]{
		Encode: func(t string) ([]byte, error) { return json.Marshal(t) },
		Decode: func(data []byte) (string, error) {
			var t string
			err := json.Unmarshal(data, &t)
			return t, err
		},
	})

	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	// Compute endpoints run behind the degradation envelope (load shedding
	// and request deadlines); observability and fabric endpoints answer in
	// microseconds and stay outside it — a wedged executor must not take
	// down the telemetry that explains why.
	s.mux.HandleFunc("/v1/design", s.compute(s.handleDesign))
	s.mux.HandleFunc("/v1/sweep", s.compute(s.handleSweep))
	s.mux.HandleFunc("GET /v1/table/{table}", s.compute(s.handleTable))
	// The distributed sweep fabric: the raw store over HTTP (workers'
	// persistent tier, and how cmd/sweep -remote assembles results) and the
	// shard-lease protocol. Both need a durable store to mean anything —
	// without one the endpoints answer but refuse: a "cluster" whose records
	// die with the coordinator process would silently recompute forever.
	if st != nil {
		s.shards = fabric.NewManager()
		s.mux.Handle("/v1/store/", httpstore.Handler(st))
		shardsH := fabric.Handler(s.shards)
		s.mux.HandleFunc("/v1/shards/", func(w http.ResponseWriter, r *http.Request) {
			if s.replaying.Load() {
				// 503 is transient to every fabric client; workers and
				// drivers back off and retry until replay finishes.
				writeErr(w, http.StatusServiceUnavailable, "journal replay in progress")
				return
			}
			shardsH.ServeHTTP(w, r)
		})
		s.mux.HandleFunc("/v1/admin/scrub", s.handleScrub)
	} else {
		s.mux.Handle("/v1/store/", httpstore.Handler(nil))
		s.mux.HandleFunc("/v1/shards/", func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusServiceUnavailable, "no store configured (run served with -store)")
		})
		s.mux.HandleFunc("/v1/admin/scrub", func(w http.ResponseWriter, r *http.Request) {
			writeErr(w, http.StatusServiceUnavailable, "no store configured (run served with -store)")
		})
	}
	return s
}

// handleScrub is the admin fsck: GET classifies every record (read-only),
// POST with repair=1 additionally quarantines bad records and removes
// orphaned temps. Deliberately outside the compute envelope — it is an
// operator action, not user traffic — but O(records): point dashboards at
// /statsz, not here.
func (s *server) handleScrub(w http.ResponseWriter, r *http.Request) {
	repair := false
	switch r.Method {
	case http.MethodGet:
	case http.MethodPost:
		repair = r.URL.Query().Get("repair") == "1"
	default:
		writeErr(w, http.StatusMethodNotAllowed, "scrub wants GET (report) or POST [?repair=1]")
		return
	}
	rep, err := s.st.Scrub(repair)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "scrub: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"report":  rep,
		"bad":     rep.Bad(),
		"repair":  repair,
		"summary": rep.String(),
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

// readyzProbeKey is the single store record /readyz rewrites on every
// probe. One fixed key: the probe must prove writes land without growing
// the store by one record per health check.
const readyzProbeKey = "served/readyz/v1/probe"

// handleReadyz is readiness, distinct from /healthz liveness: a
// coordinator whose store stopped accepting writes (disk full, permissions
// flipped, volume detached) is alive but must stop receiving cluster
// traffic. The probe round-trips a fresh payload through the store —
// sequence-numbered, so a stale read from a previous probe cannot pass.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.st == nil {
		// Memory-only mode has no store to fail; the service is as ready as
		// it will ever be.
		writeJSON(w, http.StatusOK, map[string]any{"ready": true, "store": false})
		return
	}
	if s.replaying.Load() {
		// The lease table is still being rebuilt from the journal; routing
		// cluster traffic here would grant leases for shards whose done
		// records have not replayed yet.
		writeErr(w, http.StatusServiceUnavailable, "journal replay in progress")
		return
	}
	seq := s.probes.Add(1)
	// Already-compact JSON: the store's envelope re-marshals payloads, so
	// anything non-compact would come back byte-different and fail the
	// comparison spuriously.
	payload := fmt.Sprintf(`{"probe":%d}`, seq)
	s.st.Put(readyzProbeKey, []byte(payload))
	got, ok := s.st.Get(readyzProbeKey)
	if !ok || string(got) != payload {
		writeErr(w, http.StatusServiceUnavailable, "store write probe %d failed to round-trip", seq)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "store": true, "probe": seq})
}

// bufferedResponse captures a compute handler's full response so the
// deadline race in compute has a winner: either the buffered response is
// flushed whole, or the timeout answer goes out and the buffer is dropped
// — never interleaved bytes from both.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flush(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		h[k] = vs
	}
	if b.code == 0 {
		b.code = http.StatusOK
	}
	w.WriteHeader(b.code)
	w.Write(b.body.Bytes())
}

// compute wraps a compute handler with the degradation envelope:
//
//   - Load shedding: with -max-queue set and the executor queue already
//     deeper than the bound, answer 429 + Retry-After immediately — the
//     request would only deepen the queue and stall everything behind it.
//   - Deadline: with -request-timeout set, a request that outlives it
//     answers 503 + Retry-After. The computation itself is not abandoned —
//     the engine is not preemptible mid-evaluation, and its result lands in
//     the caches either way — so the client's retry finds a warm answer.
func (s *server) compute(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.maxQueue > 0 {
			if depth := s.queueDepth(); depth > int64(s.maxQueue) {
				s.shed.Add(1)
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests,
					"overloaded: executor queue depth %d exceeds -max-queue %d", depth, s.maxQueue)
				return
			}
		}
		if s.reqTimeout <= 0 {
			h(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		buf := &bufferedResponse{header: make(http.Header)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			h(buf, r.WithContext(ctx))
		}()
		select {
		case <-done:
			buf.flush(w)
		case <-ctx.Done():
			// The handler goroutine keeps running into the buffer (dropped on
			// completion); its side effects — cache fills, checkpoints — are
			// exactly what makes the retry cheap.
			s.timeouts.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusServiceUnavailable,
				"request exceeded -request-timeout %s; the computation continues and a retry will answer from cache", s.reqTimeout)
		}
	}
}

// cacheStats renders one evalcache tier triple for /statsz.
func cacheStats(st evalcache.Stats) map[string]any {
	return map[string]any{
		"memory_hits": st.Hits,
		"disk_hits":   st.DiskHits,
		"executions":  st.Executions(),
		"lookups":     st.Lookups(),
		"hit_rate":    st.HitRate(),
	}
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	ex := parallel.Default().Stats()
	resp := map[string]any{
		"uptime_s": time.Since(s.start).Seconds(),
		"designs":  cacheStats(s.designs.Stats()),
		"tables":   cacheStats(s.tables.Stats()),
		// The process-wide concurrency governor every compute layer draws
		// from (internal/parallel): live gauges plus lifetime counters.
		"executor": map[string]any{
			"capacity":       ex.Capacity,
			"in_flight":      ex.InFlight,
			"queue_depth":    ex.QueueDepth,
			"peak_in_flight": ex.PeakInFlight,
			"acquired":       ex.Acquired,
			"waited":         ex.Waited,
			"denied":         ex.Denied,
		},
		// The degradation envelope around the compute endpoints: how often
		// load shedding and request deadlines actually fired, and the bounds
		// they enforce (0 = disabled).
		"resilience": map[string]any{
			"shed":               s.shed.Load(),
			"timeouts":           s.timeouts.Load(),
			"max_queue":          s.maxQueue,
			"request_timeout_ms": s.reqTimeout.Milliseconds(),
			"ready_probes":       s.probes.Load(),
		},
	}
	// A store backend reached over the wire (future remote tiers) carries
	// its own retry/breaker counters; surface them when present.
	if rc, ok := s.backend().(interface {
		Resilience() httpstore.ResilienceStats
	}); ok {
		resp["store_client"] = rc.Resilience()
	}
	if s.st != nil {
		resp["store"] = s.st.Stats()
		// ApproxLen, not Len: the stats endpoint is polled (workers,
		// dashboards) and must not pay an O(records) directory walk per hit.
		resp["store_records"] = s.st.ApproxLen()
	}
	if s.shards != nil {
		jobs := s.shards.Jobs()
		done, complete := 0, 0
		for _, j := range jobs {
			done += j.Done
			if j.Complete {
				complete++
			}
		}
		resp["shards"] = map[string]any{
			"jobs": len(jobs), "jobs_complete": complete, "shards_done": done,
		}
	}
	if s.journal != nil {
		js := s.journal.Stats()
		jm := map[string]any{
			"appends":          js.Appends,
			"fsyncs":           js.Fsyncs,
			"compactions":      js.Compactions,
			"compact_errors":   js.CompactErrors,
			"snapshot_records": js.SnapshotRecords,
			"log_records":      js.LogRecords,
			"torn_bytes":       js.TornBytes,
			"replaying":        s.replaying.Load(),
		}
		if rs := s.recovered.Load(); rs != nil {
			jm["recovered_jobs"] = rs.Jobs
			jm["recovered_done_shards"] = rs.DoneShards
			jm["replayed_records"] = rs.Records
			jm["replay_skipped"] = rs.Skipped
		}
		resp["journal"] = jm
	}
	writeJSON(w, http.StatusOK, resp)
}

// designRecord is the persistent (and in-memory) summary of one design
// evaluation. Objective values carry their IEEE-754 bits so warm answers
// equal cold ones exactly; settling times may be +Inf (unstable designs),
// which the bit encoding stores losslessly where plain JSON floats cannot.
type designRecord struct {
	Budget   string `json:"budget"`
	Schedule []int  `json:"schedule"`
	Ways     []int  `json:"ways,omitempty"`

	PallBits     uint64  `json:"pall_bits"`
	Pall         float64 `json:"pall"`
	Feasible     bool    `json:"feasible"`
	IdleFeasible bool    `json:"idle_feasible"`

	Apps []designAppRecord `json:"apps,omitempty"`
}

type designAppRecord struct {
	Name            string `json:"name"`
	PerformanceBits uint64 `json:"performance_bits"`
	SettlingBits    uint64 `json:"settling_bits"`
}

func designCodec() evalcache.Codec[*designRecord] {
	return evalcache.Codec[*designRecord]{
		Encode: func(r *designRecord) ([]byte, error) { return json.Marshal(r) },
		Decode: func(data []byte) (*designRecord, error) {
			var r designRecord
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, err
			}
			return &r, nil
		},
	}
}

// designCacheKey renders the canonical key of one design request. The
// case-study taskset and the budget-name mapping are fixed in code
// (internal/apps, exp.Budget), so budget name + joint point identify the
// evaluation; designNamespace versions that assumption.
func designCacheKey(budget string, j sched.JointSchedule) strKey {
	return strKey("b=" + budget + "|" + j.Key())
}

// evalDesign computes a design record by running the paper's stage-1
// holistic design through the per-budget framework. It runs as a
// singleflight leader under the designs cache, so it executes once per
// distinct key; the admission token makes the leader count as one
// computing goroutine under the process-wide governor — cold designs
// beyond capacity queue FIFO (visible as queue_depth/waited on /statsz)
// while cache hits bypass this function entirely. Holding the token is
// deadlock-free: the leader goroutine holds nothing else, and every layer
// underneath only TryAcquires.
func (s *server) evalDesign(k strKey) (*designRecord, error) {
	exec := parallel.Default()
	granted := exec.Acquire(1)
	defer exec.Release(granted)

	budget, jkey, ok := strings.Cut(string(k), "|")
	if !ok {
		return nil, fmt.Errorf("bad design key %q", k)
	}
	budget = strings.TrimPrefix(budget, "b=")
	j, err := parseJoint(jkey)
	if err != nil {
		return nil, err
	}
	fw, _, err := s.frameworks.Get(strKey(budget))
	if err != nil {
		return nil, err
	}
	ev, err := fw.EvaluateJoint(j)
	if err != nil {
		return nil, err
	}
	rec := &designRecord{
		Budget:       budget,
		Schedule:     []int(ev.Schedule.Clone()),
		Ways:         []int(ev.Ways.Clone()),
		PallBits:     math.Float64bits(ev.Pall),
		Pall:         ev.Pall,
		Feasible:     ev.Feasible,
		IdleFeasible: ev.IdleFeasible,
	}
	for _, a := range ev.Apps {
		rec.Apps = append(rec.Apps, designAppRecord{
			Name:            a.Name,
			PerformanceBits: math.Float64bits(a.Performance),
			SettlingBits:    math.Float64bits(a.Design.SettlingTime),
		})
	}
	return rec, nil
}

// parseJoint parses the canonical joint key rendering "(3, 2, 3)" or
// "(3, 2, 3)|w[2 1 1]" back into a point. The service accepts the simpler
// "3,2,3" form in requests; this parser only sees canonical keys.
func parseJoint(key string) (sched.JointSchedule, error) {
	mpart, wpart, hasW := strings.Cut(key, "|w")
	m, err := parseSchedule(strings.Trim(mpart, "()"))
	if err != nil {
		return sched.JointSchedule{}, err
	}
	j := sched.JointSchedule{M: m}
	if hasW {
		w, err := parseSchedule(strings.Trim(wpart, "[]"))
		if err != nil {
			return sched.JointSchedule{}, err
		}
		j.W = sched.Ways(w)
	}
	return j, nil
}

// parseSchedule parses "3,2,3" (also tolerating spaces) into a schedule.
func parseSchedule(text string) (sched.Schedule, error) {
	fields := strings.FieldsFunc(text, func(r rune) bool { return r == ',' || r == ' ' })
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty schedule")
	}
	m := make(sched.Schedule, len(fields))
	for i, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad schedule entry %q", f)
		}
		m[i] = v
	}
	return m, nil
}

// designRequest is the POST body of /v1/design; the GET form carries the
// same fields as query parameters with schedules semicolon-separated.
type designRequest struct {
	Schedules []string `json:"schedules"`
	Ways      string   `json:"ways,omitempty"`
	Budget    string   `json:"budget,omitempty"`
}

// designResponse is one evaluated point of a design batch. Error is set
// instead of the evaluation fields when the entry's schedule failed to
// parse — other entries of the batch still carry their results.
type designResponse struct {
	Schedule     string    `json:"schedule"`
	Ways         string    `json:"ways,omitempty"`
	Pall         float64   `json:"pall"`
	Feasible     bool      `json:"feasible"`
	IdleFeasible bool      `json:"idle_feasible"`
	Apps         []appJSON `json:"apps,omitempty"`
	Error        string    `json:"error,omitempty"`
}

type appJSON struct {
	Name        string   `json:"name"`
	Performance float64  `json:"performance"`
	SettlingMs  *float64 `json:"settling_ms,omitempty"` // omitted when not finite
}

func (s *server) handleDesign(w http.ResponseWriter, r *http.Request) {
	var req designRequest
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		// Batch via repeated schedule parameters (an unescaped ';' is
		// stripped from query strings by net/http, so it cannot separate).
		for _, part := range q["schedule"] {
			if part = strings.TrimSpace(part); part != "" {
				req.Schedules = append(req.Schedules, part)
			}
		}
		req.Ways = q.Get("ways")
		req.Budget = q.Get("budget")
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if len(req.Schedules) == 0 {
		writeErr(w, http.StatusBadRequest, "need at least one schedule (e.g. ?schedule=3,2,3)")
		return
	}
	if len(req.Schedules) > maxDesignBatch {
		writeErr(w, http.StatusBadRequest, "at most %d schedules per request", maxDesignBatch)
		return
	}
	if req.Budget == "" {
		req.Budget = s.defaultBudget
	}
	if !validBudget(req.Budget) {
		writeErr(w, http.StatusBadRequest, "unknown budget %q", req.Budget)
		return
	}
	var ways sched.Ways
	if req.Ways != "" {
		wsched, err := parseSchedule(req.Ways)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad ways: %v", err)
			return
		}
		ways = sched.Ways(wsched)
	}

	// The batch fans out on coordinator goroutines that hold no executor
	// tokens: each either answers from the designs cache immediately (warm
	// requests never queue behind cold compute) or waits on the singleflight
	// leader for its key, whose evaluator acquires the governor's admission
	// token (see evalDesign). Identical points within the batch, across
	// batches, and across concurrent requests coalesce in the cache (and on
	// its disk tier); actual computation stays capped at executor capacity.
	type slot struct {
		rec      *designRecord
		parseErr error // caller's fault: this entry's schedule didn't parse
		evalErr  error // service's fault: the framework/evaluation failed
	}
	slots := make([]slot, len(req.Schedules))
	done := make(chan struct{})
	for i := range req.Schedules {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			m, err := parseSchedule(req.Schedules[i])
			if err != nil {
				slots[i].parseErr = err
				return
			}
			j := sched.JointSchedule{M: m, W: ways.Clone()}
			slots[i].rec, _, slots[i].evalErr = s.designs.Get(designCacheKey(req.Budget, j))
		}(i)
	}
	for range req.Schedules {
		<-done
	}

	// An evaluation failure is an internal error, never a 400: report the
	// first one and let the client retry the batch unchanged.
	for i, sl := range slots {
		if sl.evalErr != nil {
			writeErr(w, http.StatusInternalServerError, "schedule %q: %v", req.Schedules[i], sl.evalErr)
			return
		}
	}
	// Parse failures are per-entry: each bad entry carries its own error and
	// the rest of the batch still returns results, under an overall 400.
	status := http.StatusOK
	resp := struct {
		Budget  string           `json:"budget"`
		Results []designResponse `json:"results"`
	}{Budget: req.Budget}
	for i, sl := range slots {
		if sl.parseErr != nil {
			status = http.StatusBadRequest
			resp.Results = append(resp.Results, designResponse{
				Schedule: req.Schedules[i],
				Error:    sl.parseErr.Error(),
			})
			continue
		}
		rec := sl.rec
		dr := designResponse{
			Schedule:     sched.Schedule(rec.Schedule).String(),
			Pall:         math.Float64frombits(rec.PallBits),
			Feasible:     rec.Feasible,
			IdleFeasible: rec.IdleFeasible,
		}
		if len(rec.Ways) > 0 {
			dr.Ways = sched.Ways(rec.Ways).String()
		}
		for _, a := range rec.Apps {
			aj := appJSON{Name: a.Name, Performance: math.Float64frombits(a.PerformanceBits)}
			if st := math.Float64frombits(a.SettlingBits); !math.IsInf(st, 0) && !math.IsNaN(st) {
				ms := st * 1e3
				aj.SettlingMs = &ms
			}
			dr.Apps = append(dr.Apps, aj)
		}
		resp.Results = append(resp.Results, dr)
	}
	writeJSON(w, status, resp)
}

// sweepRequest mirrors cmd/sweep's flags; the GET form uses identically
// named query parameters.
type sweepRequest struct {
	N          int     `json:"n"`
	Apps       int     `json:"apps"`
	Seed       int64   `json:"seed"`
	MaxM       int     `json:"maxm"`
	Starts     int     `json:"starts"`
	Tol        float64 `json:"tol"`
	Objective  string  `json:"objective"`
	Budget     string  `json:"budget"`
	Platforms  int     `json:"platforms"`
	Exhaustive bool    `json:"exhaustive"`
	Workers    int     `json:"workers"`

	// Arrival and hierarchy axes (engine.Grid's fields; see cmd/sweep's
	// -jitter/-l2-* flags).
	Jitter        float64 `json:"jitter"`
	ArrivalSeed   int64   `json:"arrival_seed"`
	ArrivalCycles int     `json:"arrival_cycles"`
	L2Lines       int     `json:"l2_lines"`
	L2Ways        int     `json:"l2_ways"`
	L2Hit         int     `json:"l2_hit"`
	L2Exclusive   bool    `json:"l2_exclusive"`
}

type sweepRow struct {
	Name      string  `json:"name"`
	Seed      int64   `json:"seed"`
	Apps      int     `json:"apps"`
	Best      string  `json:"best,omitempty"`
	Pall      float64 `json:"pall"`
	Found     bool    `json:"found"`
	Evaluated int     `json:"evaluated"`
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	DiskHits  int64   `json:"disk_hits"`
}

// Request bounds: the service is long-lived and must survive any single
// request, so batch sizes and search-space dimensions are capped — larger
// workloads belong in cmd/sweep shards sharing the same store.
const (
	maxDesignBatch    = 64    // schedules per /v1/design request
	maxSweepScenarios = 10000 // n per /v1/sweep request
	maxSweepApps      = 8     // apps per scenario (box grows as maxm^apps)
	maxSweepMaxM      = 12    // burst-length cap
	maxSweepStarts    = 16    // hybrid starts per scenario
	maxSweepWorkers   = 32    // scenario-level workers
)

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req := sweepRequest{N: 10, Seed: 1, Tol: 0.01, Objective: "timing", Workers: 4}
	switch r.Method {
	case http.MethodGet:
		q := r.URL.Query()
		qi := func(name string, dst *int) bool {
			if v := q.Get(name); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil {
					writeErr(w, http.StatusBadRequest, "bad %s=%q", name, v)
					return false
				}
				*dst = n
			}
			return true
		}
		for name, dst := range map[string]*int{
			"n": &req.N, "apps": &req.Apps, "maxm": &req.MaxM,
			"starts": &req.Starts, "platforms": &req.Platforms, "workers": &req.Workers,
			"arrival_cycles": &req.ArrivalCycles,
			"l2_lines":       &req.L2Lines, "l2_ways": &req.L2Ways, "l2_hit": &req.L2Hit,
		} {
			if !qi(name, dst) {
				return
			}
		}
		for name, dst := range map[string]*int64{"seed": &req.Seed, "arrival_seed": &req.ArrivalSeed} {
			if v := q.Get(name); v != "" {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					writeErr(w, http.StatusBadRequest, "bad %s=%q", name, v)
					return
				}
				*dst = n
			}
		}
		for name, dst := range map[string]*float64{"tol": &req.Tol, "jitter": &req.Jitter} {
			if v := q.Get(name); v != "" {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					writeErr(w, http.StatusBadRequest, "bad %s=%q", name, v)
					return
				}
				*dst = f
			}
		}
		if v := q.Get("objective"); v != "" {
			req.Objective = v
		}
		req.Budget = q.Get("budget")
		req.Exhaustive = q.Get("exhaustive") == "1" || q.Get("exhaustive") == "true"
		req.L2Exclusive = q.Get("l2_exclusive") == "1" || q.Get("l2_exclusive") == "true"
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad JSON body: %v", err)
			return
		}
	default:
		writeErr(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if req.N < 1 || req.N > maxSweepScenarios {
		writeErr(w, http.StatusBadRequest, "n must be in [1, %d]", maxSweepScenarios)
		return
	}
	for _, bound := range []struct {
		name string
		val  int
		max  int
	}{
		{"apps", req.Apps, maxSweepApps},
		{"maxm", req.MaxM, maxSweepMaxM},
		{"starts", req.Starts, maxSweepStarts},
		{"workers", req.Workers, maxSweepWorkers},
	} {
		if bound.val < 0 || bound.val > bound.max {
			writeErr(w, http.StatusBadRequest, "%s must be in [0, %d] (0 = default)", bound.name, bound.max)
			return
		}
	}
	if !validTol(req.Tol) {
		writeErr(w, http.StatusBadRequest, "tol must be a finite positive number")
		return
	}
	var obj engine.Objective
	switch req.Objective {
	case "timing":
		obj = engine.ObjectiveTiming
	case "design":
		obj = engine.ObjectiveDesign
	default:
		writeErr(w, http.StatusBadRequest, "unknown objective %q", req.Objective)
		return
	}
	if req.Budget == "" {
		req.Budget = s.defaultBudget
	}
	if !validBudget(req.Budget) {
		writeErr(w, http.StatusBadRequest, "unknown budget %q", req.Budget)
		return
	}

	grid := engine.Grid{
		N: req.N, Apps: req.Apps, Seed: req.Seed, MaxM: req.MaxM,
		Starts: req.Starts, Tol: req.Tol, Objective: obj,
		Budget: exp.Budget(req.Budget), Platforms: req.Platforms,
		Exhaustive: req.Exhaustive,
		Jitter:     req.Jitter, ArrivalSeed: req.ArrivalSeed, ArrivalCycles: req.ArrivalCycles,
		L2Lines: req.L2Lines, L2Ways: req.L2Ways, L2Hit: req.L2Hit, L2Exclusive: req.L2Exclusive,
	}
	scenarios, err := grid.Scenarios()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Admission control: one token for the computing request goroutine
	// (sweeps have no request-level cache in front of them — warmth lives
	// in the engine's store tier, and a fully checkpointed sweep holds the
	// token only briefly); excess concurrent sweeps queue FIFO.
	exec := parallel.Default()
	granted := exec.Acquire(1)
	defer exec.Release(granted)
	// Resume is always on: a sweep the service (or a CLI sharing the store)
	// already ran answers from checkpoint records.
	results, err := engine.Sweep(engine.Config{
		Workers: req.Workers, Store: s.backend(), Resume: true,
	}, scenarios)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}

	rows := make([]sweepRow, 0, len(results))
	found := 0
	for _, res := range results {
		row := sweepRow{
			Name: res.Name, Seed: res.Seed, Apps: res.AppCount,
			Pall: res.BestValue, Found: res.FoundBest,
			Evaluated: res.Evaluated, Hits: res.CacheStats.Hits,
			Misses: res.CacheStats.Misses, DiskHits: res.CacheStats.DiskHits,
		}
		if res.FoundBest {
			row.Best = res.Best.String()
			found++
		}
		rows = append(rows, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"rows":  rows,
		"found": found,
		"total": len(rows),
	})
}

// renderTable produces the text rendering of one paper table; the key is
// tableCacheKey's output. Like evalDesign it is a singleflight leader and
// acquires the governor's admission token for the duration of the render
// (Table III/IV run full searches), so cold table renders count against
// executor capacity while cached renders skip this function entirely.
func (s *server) renderTable(k strKey) (string, error) {
	exec := parallel.Default()
	granted := exec.Acquire(1)
	defer exec.Release(granted)

	parts := strings.Split(string(k), "|")
	if len(parts) != 4 {
		return "", fmt.Errorf("bad table key %q", k)
	}
	table, budget := parts[0], strings.TrimPrefix(parts[1], "b=")
	maxM, err := strconv.Atoi(strings.TrimPrefix(parts[2], "m="))
	if err != nil {
		return "", fmt.Errorf("bad table key %q", k)
	}
	tolBits, err := strconv.ParseUint(strings.TrimPrefix(parts[3], "tol="), 16, 64)
	if err != nil {
		return "", fmt.Errorf("bad table key %q", k)
	}
	tol := math.Float64frombits(tolBits)

	switch table {
	case "I":
		rows, err := exp.TableI(apps.CaseStudy(), wcet.PaperPlatform())
		if err != nil {
			return "", err
		}
		return exp.FormatTableI(rows), nil
	case "II":
		return exp.FormatTableII(exp.TableII(apps.CaseStudy())), nil
	case "III":
		fw, _, err := s.frameworks.Get(strKey(budget))
		if err != nil {
			return "", err
		}
		t3, err := exp.TableIII(fw, exp.PaperRoundRobin, exp.PaperOptimal)
		if err != nil {
			return "", err
		}
		return exp.FormatTableIII(t3), nil
	case "IV":
		rows, err := exp.PartitionCaseStudyWith(maxM, tol, engine.Config{
			Workers: 1, Store: s.backend(), Resume: true,
		})
		if err != nil {
			return "", err
		}
		return exp.FormatPartitionTable(rows), nil
	default:
		return "", fmt.Errorf("unknown table %q", table)
	}
}

func tableCacheKey(table, budget string, maxM int, tol float64) strKey {
	return strKey(fmt.Sprintf("%s|b=%s|m=%d|tol=%016x", table, budget, maxM, math.Float64bits(tol)))
}

func (s *server) handleTable(w http.ResponseWriter, r *http.Request) {
	table := r.PathValue("table")
	switch table {
	case "I", "II", "III", "IV":
	default:
		writeErr(w, http.StatusNotFound, "unknown table %q (want I, II, III, or IV)", table)
		return
	}
	q := r.URL.Query()
	budget := q.Get("budget")
	if budget == "" {
		budget = s.defaultBudget
	}
	if !validBudget(budget) {
		writeErr(w, http.StatusBadRequest, "unknown budget %q", budget)
		return
	}
	maxM, tol := 6, 0.01
	if v := q.Get("maxm"); v != "" {
		// Table IV runs a maxm^apps search: maxm obeys the same cap as
		// /v1/sweep or a single request could take the service down.
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxSweepMaxM {
			writeErr(w, http.StatusBadRequest, "maxm must be in [1, %d]", maxSweepMaxM)
			return
		}
		maxM = n
	}
	if v := q.Get("tol"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !validTol(f) {
			writeErr(w, http.StatusBadRequest, "tol must be a finite positive number, got %q", v)
			return
		}
		tol = f
	}
	text, _, err := s.tables.Get(tableCacheKey(table, budget, maxM, tol))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"table": table, "text": text})
}
