package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/search"
	"repro/internal/wcet"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// timingGridSize is the number of scenarios in one timing-sweep batch: a
// multiple of 24, so every class of the mix below cycles its platforms
// evenly and the cost of a batch varies little from seed to seed.
func timingGridSize(size string) int {
	if size == "smoke" {
		return 24
	}
	return 768
}

// timingGrid draws one timing-sweep batch from seed. Scenario i belongs to
// class i%8: five of eight are periodic scenarios over all four
// engine.PlatformVariants (the L1+L2 variant included), one is a
// partitioned scenario and one a two-core branch-and-bound scenario on the
// multi-way platforms of exp.PartitionPlatforms, and one is a jittered
// sporadic scenario on a shared single-level platform. That mix avoids the
// combinations engine.RunWith rejects (sporadic with partitions or cores,
// partitions with a hierarchy). Classes and platforms follow the index;
// only the tasksets and jitter draws come from seed. Every scenario runs
// hybrid search plus the exhaustive baseline, with every search default
// spelled out so replayed searches in the traced run match exactly.
func timingGrid(seed int64, n int) []engine.Scenario {
	rng := rand.New(rand.NewSource(seed))
	variants := engine.PlatformVariants()
	var single []wcet.Platform
	for _, p := range variants {
		if !p.Hier.Enabled() {
			single = append(single, p)
		}
	}
	var multiway []wcet.Platform
	for _, pp := range exp.PartitionPlatforms() {
		if pp.Platform.Cache.Ways > 1 {
			multiway = append(multiway, pp.Platform)
		}
	}
	scns := make([]engine.Scenario, n)
	for i := range scns {
		group, class := i/8, i%8
		s := engine.Scenario{
			Name: fmt.Sprintf("t%03d", i), Seed: rng.Int63(),
			NumApps: 3, MaxM: 6, Starts: 2, Tolerance: 0.01, Workers: 1, Exhaustive: true,
		}
		switch {
		case class < 5:
			s.Platform = variants[(group*5+class)%len(variants)]
		case class == 5:
			s.Platform = multiway[group%len(multiway)]
			s.Partitioned = true
		case class == 6:
			s.Platform = multiway[(group+1)%len(multiway)]
			s.Cores = 2
			s.BranchBound = true
		default:
			s.Platform = single[group%len(single)]
			s.Arrival = sched.Arrival{
				Model: sched.ArrivalSporadic, Jitter: []float64{0.1, 0.25}[group%2], Seed: rng.Int63(),
			}
		}
		scns[i] = s
	}
	return scns
}

// designGrid is the design-sweep batch: the paper case study with the
// paper's hybrid starts and the exhaustive baseline, on the L1+L2 variant
// of the paper platform and on the paper platform itself. The slower L1+L2
// scenario comes first, so the paper one runs beside it and the two
// finish close together. The case study is fixed, so the seed selects
// nothing here.
func designGrid(size string) []engine.Scenario {
	budget, maxM := exp.QuickBudget(), 6
	if size == "smoke" {
		budget, maxM = exp.TinyBudget(), 3
	}
	plats := exp.ScenarioPlatforms()
	var scns []engine.Scenario
	for _, p := range []exp.PartitionPlatform{plats[1], plats[0]} {
		s := exp.CaseStudyScenario(budget, maxM, 0.01)
		s.Name, s.Platform = p.Name, p.Platform
		s.Starts, s.Workers, s.NumApps = len(s.StartList), 1, len(s.Apps)
		scns = append(scns, s)
	}
	return scns
}

// resultKey renders the outcome of one scenario as the sweep report shows
// it: best point, P_all bits, and evaluated count (plus the placement
// optimum of multi-core scenarios).
func resultKey(r *engine.Result) string {
	if r == nil {
		return "<pending>"
	}
	best := r.Best.Key()
	if r.BestJoint.M != nil {
		best = r.BestJoint.Key()
	}
	line := fmt.Sprintf("%s|%d|%s|%x|%t|%d", r.Name, r.Seed, best, math.Float64bits(r.BestValue), r.FoundBest, r.Evaluated)
	if mc := r.Multicore; mc != nil {
		line += fmt.Sprintf("|mc%v|%x|%d", mc.Assignment, math.Float64bits(mc.BestValue), mc.Evaluated)
	}
	return line
}

// render returns the report lines of a sweep in scenario order.
func render(res []*engine.Result) []string {
	lines := make([]string, len(res))
	for i, r := range res {
		lines[i] = resultKey(r)
	}
	return lines
}

// digest hashes report lines.
func digest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// searchCounts are the exact search counters of one batch.
type searchCounts struct {
	points, pruned int
	hits, lookups  int64
}

func countSearch(res []*engine.Result) searchCounts {
	var c searchCounts
	for _, r := range res {
		c.points += r.Evaluated
		c.pruned += r.JointPruned
		if mc := r.Multicore; mc != nil {
			c.pruned += mc.AssignmentsPruned + mc.SubtreesPruned
		}
		c.hits += r.CacheStats.Hits
		c.lookups += r.CacheStats.Lookups()
	}
	return c
}

// sweepWorkload is an in-process engine.Sweep workload: build expands its
// batch (the set-up), check compares the first batch's report lines with
// the pinned outputs, replay times the layers under one scenario from
// outside for the traced run, and extra, if set, adds workload-specific
// traced metrics.
type sweepWorkload struct {
	build  func() ([]engine.Scenario, error)
	check  func(o *outcome, lines []string) error
	replay func(tr *tracer, parent int, scn engine.Scenario, res *engine.Result) (exact bool, err error)
	extra  func(tr *tracer, o *outcome) error
}

func runTimingSweep(opt options) (*outcome, error) {
	n := timingGridSize(opt.size)
	return runSweep(opt, sweepWorkload{
		build: func() ([]engine.Scenario, error) { return timingGrid(opt.seed, n), nil },
		check: func(o *outcome, lines []string) error {
			got := digest(lines)
			if want, ok := opt.pins.Timing[opt.size][strconv.FormatInt(opt.seed, 10)]; ok {
				o.checkf(got == want, "digest %s, pinned %s", got, want)
				return nil
			}
			// No pin for this seed: hold the parallel sweep to a serial one,
			// which the engine guarantees to be bit-identical.
			ref, err := engine.Sweep(engine.Config{Workers: 1}, timingGrid(opt.seed, n))
			if err != nil {
				return err
			}
			want := digest(render(ref))
			o.checkf(got == want, "digest %s, serial sweep %s", got, want)
			return nil
		},
		replay: replayTimingScenario,
	})
}

func runDesignSweep(opt options) (*outcome, error) {
	var fw *core.Framework
	return runSweep(opt, sweepWorkload{
		build: func() ([]engine.Scenario, error) {
			scns := designGrid(opt.size)
			var err error
			fw, err = exp.DefaultFramework(scns[0].Budget)
			return scns, err
		},
		check: func(o *outcome, lines []string) error {
			for _, line := range lines {
				name, _, _ := strings.Cut(line, "|")
				want, ok := opt.pins.Design[opt.size][name]
				o.checkf(ok && line == want, "%s rendered %q, pinned %q", name, line, want)
			}
			return nil
		},
		replay: replayDesignScenario,
		extra: func(tr *tracer, o *outcome) error {
			// The framework construction setup pays, and ctrl's holistic
			// design called directly, per app, on case-study schedules.
			for i := 0; i < setupReps; i++ {
				t := time.Now()
				if _, err := exp.DefaultFramework(fw.DesignOpt); err != nil {
					return err
				}
				tr.record("exp.DefaultFramework", "setup", -1, t, time.Now())
			}
			for _, s := range []sched.Schedule{exp.PaperRoundRobin, exp.PaperOptimal} {
				derived, err := sched.Derive(fw.Timings, s)
				if err != nil {
					return err
				}
				for i, app := range fw.Apps {
					dopt := fw.DesignOpt
					dopt.Swarm.Seed = int64(i + 1)
					t := time.Now()
					if _, err := ctrl.DesignHolistic(app.Plant, derived[i], app.Constraints(), dopt); err != nil {
						return err
					}
					tr.record("ctrl.DesignHolistic", s.Key()+"/"+app.Name, -1, t, time.Now())
				}
			}
			ct := tr.durations("exp.DefaultFramework")
			o.metrics["core.framework_ms"] = median(ct)
			o.samples["core.framework"] = len(ct)
			dt := tr.durations("ctrl.DesignHolistic")
			o.metrics["ctrl.design_ms_p50"] = median(dt)
			o.samples["ctrl.design"] = len(dt)
			return nil
		},
	})
}

// runSweep measures a sweep workload. Untraced, it sets up setupReps times,
// then runs engine.Sweep over the batch at Workers = nproc until the time is
// up; every batch must render the same report. Traced, it spends half the
// time untraced (the overhead baseline and the runtime counters) and half
// running the same batch through engine.RunWith under spans, then replays
// each scenario of the last traced batch to time its layers.
func runSweep(opt options, w sweepWorkload) (*outcome, error) {
	o := newOutcome()
	var scns []engine.Scenario
	setupS, err := medianSetup(setupReps, func() (err error) {
		scns, err = w.build()
		return err
	})
	if err != nil {
		return nil, err
	}
	workers := runtime.NumCPU()
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	var (
		first       []string // report lines of the first batch
		firstDigest string
		counts      searchCounts
	)
	batch := func(res []*engine.Result) {
		o.attempted += len(res)
		lines := render(res)
		if first == nil {
			first, firstDigest, counts = lines, digest(lines), countSearch(res)
			return
		}
		if d := digest(lines); d != firstDigest {
			o.checkf(false, "a batch rendered digest %s, the first batch %s", d, firstDigest)
		}
	}
	rss := startRSS()
	rt0 := readRuntime()
	lat, err := timedLoop(budget, func() error {
		res, err := engine.Sweep(engine.Config{Workers: workers}, scns)
		if err != nil {
			return err
		}
		batch(res)
		rss.cut()
		return nil
	})
	rt1 := readRuntime()
	peaks := rss.close()
	if err != nil {
		return nil, err
	}
	untracedBatches := len(lat)
	if err := w.check(o, first); err != nil {
		return nil, err
	}
	if !opt.trace {
		o.metrics["setup_s"] = setupS
		o.metrics["ops_per_s"] = float64(o.attempted) / (sum(lat) / 1e3)
		o.metrics["latency_p50_ms"] = median(lat)
		o.metrics["latency_p99_ms"] = quantile(lat, 0.99)
		o.metrics["peak_rss_mb"] = median(peaks)
		o.samples["latency"] = len(lat)
		return o, nil
	}

	tr := newTracer()
	exec0 := parallel.Default().Stats()
	var spans []int
	var last []*engine.Result
	tracedStart := time.Now()
	latT, err := timedLoop(budget, func() error {
		res := make([]*engine.Result, len(scns))
		errs := make([]error, len(scns))
		spans = make([]int, len(scns))
		parallel.Default().ForEach(len(scns), workers, func(i int) {
			t := time.Now()
			res[i], errs[i] = engine.RunWith(scns[i], engine.RunConfig{})
			spans[i] = tr.record("engine.RunWith", scns[i].Name, -1, t, time.Now())
		})
		if err := errors.Join(errs...); err != nil {
			return err
		}
		batch(res)
		last = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	wallT := time.Since(tracedStart)
	exec1 := parallel.Default().Stats()

	exact := make([]bool, len(scns))
	errs := make([]error, len(scns))
	parallel.Default().ForEach(len(scns), workers, func(i int) {
		exact[i], errs[i] = w.replay(tr, spans[i], scns[i], last[i])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var self []float64
	for i, ok := range exact {
		if ok {
			self = append(self, tr.selfTime(spans[i]))
		}
	}
	scenarioMs := tr.durations("engine.RunWith")
	o.metrics["engine.scenario_ms_p50"] = median(scenarioMs)
	o.metrics["engine.scenario_ms_p99"] = quantile(scenarioMs, 0.99)
	o.samples["engine.scenario"] = len(scenarioMs)
	o.metrics["engine.busy_frac"] = ratio(sum(scenarioMs), ms(wallT)*float64(workers))
	o.metrics["parallel.waited"] = float64(exec1.Waited - exec0.Waited)
	o.metrics["search.self_ms"] = median(self)
	o.samples["search.self"] = len(self)
	o.metrics["runtime.alloc_mb"] = float64(rt1.allocBytes-rt0.allocBytes) / (1 << 20) / float64(untracedBatches)
	o.metrics["runtime.gc_cpu_frac"] = ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU)
	o.metrics["search.points"] = float64(counts.points)
	o.metrics["search.pruned"] = float64(counts.pruned)
	o.metrics["evalcache.hit_ratio"] = ratio(float64(counts.hits), float64(counts.lookups))
	taskset := tr.durations("wcet.taskset")
	o.metrics["wcet.taskset_ms"] = median(taskset)
	o.metrics["wcet.tasksets"] = float64(len(taskset))
	evals := tr.durations("sched.eval")
	o.metrics["sched.eval_ns_p50"] = median(evals) * 1e6
	o.samples["sched.eval"] = len(evals)
	sporadic := tr.durations("sched.sporadic_eval")
	o.metrics["sched.sporadic_eval_us_p50"] = median(sporadic) * 1e3
	o.samples["sched.sporadic_eval"] = len(sporadic)
	coreEval := tr.durations("core.eval")
	o.metrics["core.eval_ms_p50"] = median(coreEval)
	o.metrics["core.eval_ms_p99"] = quantile(coreEval, 0.99)
	o.samples["core.eval"] = len(coreEval)
	o.metrics["trace.overhead_frac"] = median(latT)/median(lat) - 1
	o.metrics["failed_frac"] = 0
	if w.extra != nil {
		if err := w.extra(tr, o); err != nil {
			return nil, err
		}
	}
	return o, tr.write(opt.traceOut)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// timedEval wraps an evaluator so every call records a span.
func timedEval(tr *tracer, name, id string, parent int, f search.EvalFunc) search.EvalFunc {
	return func(s sched.Schedule) (search.Outcome, error) {
		t := time.Now()
		out, err := f(s)
		tr.record(name, id, parent, t, time.Now())
		return out, err
	}
}

// replaySearch reruns the shared-cache search engine.RunWith performs for a
// non-partitioned scenario, through the given (timed) evaluator, and checks
// that it executed exactly the scenario's evaluations and found its optimum.
func replaySearch(eval search.EvalFunc, timings []sched.AppTiming, starts []sched.Schedule, scn engine.Scenario, res *engine.Result) error {
	cache := search.NewTieredCache(eval, nil, "")
	hy, err := search.Hybrid(eval, timings, starts, search.Options{Tolerance: scn.Tolerance, MaxM: scn.MaxM, Cache: cache})
	if err != nil {
		return err
	}
	best, value := hy.Best, hy.BestValue
	ex, err := search.ExhaustiveCached(cache, timings, scn.MaxM, scn.Workers)
	if err != nil {
		return err
	}
	if ex.FoundBest && (!hy.FoundBest || ex.BestValue > value) {
		best, value = ex.Best, ex.BestValue
	}
	if cache.Len() != res.Evaluated || best.Key() != res.Best.Key() || math.Float64bits(value) != math.Float64bits(res.BestValue) {
		return fmt.Errorf("replay evaluated %d, best %s %x; run evaluated %d, best %s %x",
			cache.Len(), best.Key(), math.Float64bits(value), res.Evaluated, res.Best.Key(), math.Float64bits(res.BestValue))
	}
	return nil
}

// replayTimingScenario times the taskset analysis (wcet/cachesim) and the
// timing evaluator (sched) of one timing-sweep scenario. Shared-cache
// scenarios replay their exact search; partitioned and multi-core ones time
// a sample of joint points instead, which is not exact: such scenarios do
// not count towards search.self_ms.
func replayTimingScenario(tr *tracer, parent int, scn engine.Scenario, res *engine.Result) (exact bool, err error) {
	rng := rand.New(rand.NewSource(scn.Seed))
	if scn.Partitioned || scn.Cores > 1 {
		t := time.Now()
		pt, weights, err := engine.RandomPartitionTaskset(rng, scn)
		if err != nil {
			return false, err
		}
		tr.record("wcet.taskset", scn.Name, parent, t, time.Now())
		eval := engine.JointTimingEval(pt, weights)
		n := 0
		forEachPoint(pt.Apps(), scn.MaxM, func(m sched.Schedule) {
			if n++; n%7 != 0 {
				return
			}
			j := sched.JointSchedule{M: m, W: sched.Ways(evenWays(pt.Apps(), pt.TotalWays()))}
			t := time.Now()
			eval(j)
			tr.record("sched.eval", scn.Name, parent, t, time.Now())
		})
		return false, nil
	}
	t := time.Now()
	timings, weights, err := engine.RandomTaskset(rng, scn)
	if err != nil {
		return false, err
	}
	tr.record("wcet.taskset", scn.Name, parent, t, time.Now())
	starts := engine.RandomStarts(rng, timings, scn.Starts, scn.MaxM)
	eval := timedEval(tr, "sched.eval", scn.Name, parent, engine.TimingEval(timings, weights))
	if scn.Arrival.Sporadic() {
		eval = timedEval(tr, "sched.sporadic_eval", scn.Name, parent, engine.SporadicTimingEval(timings, weights, scn.Arrival.WithDefaults()))
	}
	return true, replaySearch(eval, timings, starts, scn, res)
}

// replayDesignScenario times the framework construction (core.New, which
// runs the case study's WCET analysis) and every executed design
// evaluation (core.Framework.EvalFunc) of one design-sweep scenario.
func replayDesignScenario(tr *tracer, parent int, scn engine.Scenario, res *engine.Result) (exact bool, err error) {
	t := time.Now()
	fw, err := core.New(scn.Apps, scn.Platform, scn.Budget)
	if err != nil {
		return false, err
	}
	tr.record("core.New", scn.Name, parent, t, time.Now())
	eval := timedEval(tr, "core.eval", scn.Name, parent, fw.EvalFunc())
	return true, replaySearch(eval, fw.Timings, scn.StartList, scn, res)
}

// forEachPoint visits every schedule of the box [1, maxM]^n.
func forEachPoint(n, maxM int, fn func(sched.Schedule)) {
	m := make(sched.Schedule, n)
	for i := range m {
		m[i] = 1
	}
	for {
		fn(m)
		i := 0
		for ; i < n && m[i] == maxM; i++ {
			m[i] = 1
		}
		if i == n {
			return
		}
		m[i]++
	}
}

// evenWays splits total ways as evenly as possible over n apps.
func evenWays(n, total int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = total / n
		if i < total%n {
			w[i]++
		}
	}
	return w
}
