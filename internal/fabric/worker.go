package fabric

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/resilience"
	"repro/internal/store/httpstore"
)

// Worker is one cluster compute process: it leases shards from a
// coordinator, runs each leased scenario range through the sweep engine
// with the coordinator's store mounted as its persistent tier (every
// checkpoint, and every design-objective outcome, published over HTTP),
// heartbeats while working,
// and marks shards complete. cmd/served's -worker mode wraps exactly this.
//
// A worker holds no durable state: killing it mid-shard loses nothing but
// the lease TTL — finished scenarios are already checkpointed in the shared
// store, and whichever worker steals the expired lease resumes past them.
//
// Failure posture: lease calls and store traffic retry transient failures
// with backoff (the protocol client's envelope), idle polls are spread by
// decorrelated jitter seeded from the worker's name so a fleet never
// thunders in lockstep, a heartbeat that learns another worker owns the
// shard abandons it between scenarios (bounding duplicated work to the one
// scenario in flight), and a panicking scenario is caught — the shard is
// abandoned for another worker to retry, the process survives.
type Worker struct {
	Coordinator string        // coordinator base URL (required)
	Name        string        // lease owner identity (required)
	TTL         time.Duration // requested lease TTL (0 = DefaultTTL)
	Poll        time.Duration // idle/retry poll interval, pre-jitter (0 = TTL/2)
	Drain       bool          // exit cleanly when the coordinator has no work
	Throttle    time.Duration // optional pause between scenarios (rate-limits a shared box)

	// HTTPClient is shared by the lease client and the store backend; nil
	// uses defaults.
	HTTPClient *http.Client
	// Log receives one progress line per lease event; nil is silent.
	Log io.Writer

	// drainErrLimit bounds consecutive coordinator failures in Drain mode
	// before giving up (0 = default 10). Without Drain a worker retries
	// forever — coordinator downtime is expected during restarts.
	drainErrLimit int
	// runFn replaces engine.RunWith (test hook for fault paths the real
	// kernels cannot produce on demand, e.g. a panicking scenario).
	runFn func(engine.Scenario, engine.RunConfig) (*engine.Result, error)
}

// WorkerStats summarizes one Run.
type WorkerStats struct {
	Shards     int // shards completed
	Scenarios  int // scenarios this worker ran (or resumed) itself
	LeasesLost int // shards abandoned after a heartbeat learned another owner
	Panics     int // scenarios that panicked and were isolated
}

// errShardLost marks a shard abandoned mid-range because the lease moved to
// another worker.
var errShardLost = fmt.Errorf("fabric: shard abandoned: %w", ErrLeaseLost)

func (w *Worker) logf(format string, args ...any) {
	if w.Log != nil {
		fmt.Fprintf(w.Log, format+"\n", args...)
	}
}

// sleep pauses for d or until ctx is cancelled.
func sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// nameSeed folds a worker name into a deterministic per-worker seed for
// jitter and retry streams, so two workers never share a schedule but each
// worker's own schedule is reproducible.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	seed := int64(h.Sum64())
	if seed == 0 {
		seed = 1
	}
	return seed
}

// Run executes the lease loop until ctx is cancelled (returning ctx.Err())
// or, with Drain set, until the coordinator reports no available work
// (returning nil). Transport errors are retried — a worker outlives
// coordinator restarts — except that Drain mode gives up after a run of
// consecutive failures, whether the failing call is the acquire or the
// job listing that decides "drained".
func (w *Worker) Run(ctx context.Context) (WorkerStats, error) {
	var stats WorkerStats
	if w.Coordinator == "" || w.Name == "" {
		return stats, fmt.Errorf("fabric: worker needs Coordinator and Name")
	}
	ttl := clampTTL(w.TTL)
	poll := w.Poll
	if poll <= 0 {
		poll = ttl / 2
	}
	errLimit := w.drainErrLimit
	if errLimit <= 0 {
		errLimit = 10
	}
	seed := nameSeed(w.Name)
	// Idle waits draw from a decorrelated-jitter schedule: nominally poll,
	// stretching toward 3x under sustained idleness, reset by useful work.
	jit := resilience.NewJitter(poll, 3*poll, seed)
	cl := NewClientWithOptions(w.Coordinator, ClientOptions{
		HTTPClient: w.HTTPClient,
		Policy:     resilience.Policy{Seed: seed},
	})
	backend := httpstore.NewWithOptions(w.Coordinator, httpstore.Options{
		HTTPClient: w.HTTPClient,
		Policy:     resilience.Policy{Seed: seed},
	})

	consecutiveErrs := 0
	for {
		if ctx.Err() != nil {
			return stats, ctx.Err()
		}
		lease, ok, err := cl.Acquire("", w.Name, ttl)
		if err != nil {
			consecutiveErrs++
			w.logf("worker %s: acquire: %v", w.Name, err)
			if w.Drain && consecutiveErrs >= errLimit {
				return stats, fmt.Errorf("fabric: worker %s: coordinator unreachable: %w", w.Name, err)
			}
			sleep(ctx, jit.Next())
			continue
		}
		if !ok {
			// No leasable shard. In Drain mode that is not yet "done": an
			// incomplete job may be waiting out a dead worker's lease TTL, and
			// this worker must stay to steal it. Exit only when a successful
			// job listing shows every job complete — a failed listing is a
			// coordinator failure like any other, counted against the drain
			// error budget and retried, never mistaken for "drained".
			if w.Drain {
				jobs, jerr := cl.Jobs()
				if jerr != nil {
					consecutiveErrs++
					w.logf("worker %s: jobs: %v", w.Name, jerr)
					if consecutiveErrs >= errLimit {
						return stats, fmt.Errorf("fabric: worker %s: coordinator unreachable: %w", w.Name, jerr)
					}
					sleep(ctx, jit.Next())
					continue
				}
				consecutiveErrs = 0
				open := false
				for _, j := range jobs {
					if !j.Complete {
						open = true
						break
					}
				}
				if !open {
					return stats, nil
				}
			}
			consecutiveErrs = 0
			sleep(ctx, jit.Next())
			continue
		}
		consecutiveErrs = 0
		jit.Reset()
		ran, err := w.runShard(ctx, cl, backend, lease, ttl)
		stats.Scenarios += ran
		if err != nil {
			if ctx.Err() != nil {
				return stats, ctx.Err()
			}
			if errors.Is(err, ErrLeaseLost) {
				// Another worker owns the shard now; its scenarios are in good
				// hands. Go straight back to acquiring — this is contention,
				// not failure, and needs no backoff.
				stats.LeasesLost++
				w.logf("worker %s: %s shard %d/%d lost to another owner after %d scenario(s)",
					w.Name, lease.Job, lease.Shard, lease.Shards, ran)
				continue
			}
			// Abandon the shard: the lease expires and another worker (or a
			// later pass of this one) steals and retries it. Scenarios that
			// finished before the error are checkpointed and will resume.
			var pe *panicError
			if errors.As(err, &pe) {
				stats.Panics++
			}
			w.logf("worker %s: %s shard %d/%d failed after %d scenario(s): %v",
				w.Name, lease.Job, lease.Shard, lease.Shards, ran, err)
			sleep(ctx, jit.Next()) // a poisoned shard must not hot-loop
			continue
		}
		// Crash point: every record of the range is published, the lease
		// table has not heard. Recovery must re-lease and resume the shard,
		// not lose it.
		chaos.MaybeCrash(chaos.CrashWorkerPreComplete)
		if err := cl.Complete(lease, w.Name); err != nil {
			// The records are durable either way; completion is advisory.
			w.logf("worker %s: complete %s shard %d: %v", w.Name, lease.Job, lease.Shard, err)
		} else {
			stats.Shards++
			w.logf("worker %s: completed %s shard %d/%d (%d scenario(s))",
				w.Name, lease.Job, lease.Shard, lease.Shards, ran)
		}
	}
}

// panicError marks a scenario that panicked instead of returning.
type panicError struct {
	scenario int
	val      any
}

func (e *panicError) Error() string {
	return fmt.Sprintf("scenario %d panicked: %v", e.scenario, e.val)
}

// runScenario executes one scenario with panic isolation: a deterministic
// panic in the simulation kernels takes down the shard attempt, never the
// worker process.
func (w *Worker) runScenario(scenario engine.Scenario, backend *httpstore.Client, index int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{scenario: index, val: r}
		}
	}()
	run := w.runFn
	if run == nil {
		run = engine.RunWith
	}
	if _, err := run(scenario, engine.RunConfig{Store: backend, Resume: true}); err != nil {
		return fmt.Errorf("scenario %d: %w", index, err)
	}
	return nil
}

// runShard executes the leased scenario range one scenario at a time —
// scenario granularity is what makes kills cheap (at most one scenario of
// work is lost) and cancellation prompt. Resume is always on: scenarios
// another worker already checkpointed load from the shared store instead of
// recomputing. A background heartbeat keeps the lease alive across long
// scenarios; a heartbeat answered with ErrLeaseLost (the shard was stolen
// or finished elsewhere) cancels the shard between scenarios, so a
// partitioned worker duplicates at most the one scenario it had in flight.
func (w *Worker) runShard(ctx context.Context, cl *Client, backend *httpstore.Client, lease Lease, ttl time.Duration) (int, error) {
	grid, err := lease.Spec.Grid()
	if err != nil {
		return 0, err
	}
	scenarios, err := grid.Scenarios()
	if err != nil {
		return 0, err
	}
	lo, hi := engine.ShardRange(lease.Shard, lease.Shards, len(scenarios))
	w.logf("worker %s: leased %s shard %d/%d (scenarios [%d, %d))",
		w.Name, lease.Job, lease.Shard, lease.Shards, lo, hi)

	shardCtx, stopShard := context.WithCancel(ctx)
	defer stopShard()
	lost := make(chan struct{})
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-t.C:
				if err := cl.Heartbeat(lease, w.Name, ttl); err != nil {
					w.logf("worker %s: heartbeat %s shard %d: %v", w.Name, lease.Job, lease.Shard, err)
					if errors.Is(err, ErrLeaseLost) {
						close(lost)
						stopShard()
						return
					}
					// Transient heartbeat failure (already retried by the
					// client): keep computing. Finishing is still correct even
					// if the lease lapses, just possibly duplicated.
				}
			}
		}
	}()

	ran := 0
	for i := lo; i < hi; i++ {
		if shardCtx.Err() != nil {
			select {
			case <-lost:
				return ran, errShardLost
			default:
				return ran, ctx.Err()
			}
		}
		if err := w.runScenario(scenarios[i], backend, i); err != nil {
			return ran, err
		}
		ran++
		sleep(shardCtx, w.Throttle)
	}
	return ran, nil
}
