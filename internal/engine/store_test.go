package engine

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps"
	"repro/internal/ctrl"
	"repro/internal/sched"
	"repro/internal/store"
)

// storeGrid is a small randomized timing sweep used by the persistence
// tests; exhaustive is on so checkpoint records carry baseline summaries.
func storeGrid(n int) []Scenario {
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		scenarios[i] = Scenario{
			Name:       fmt.Sprintf("s%03d", i),
			Seed:       int64(100 + i),
			Exhaustive: true,
		}
	}
	return scenarios
}

// summary flattens the report-visible fields of a result for equality
// checks across cold/warm/resumed runs. DiskHits is deliberately absent:
// it is the one counter allowed to differ between tiers.
type summary struct {
	Name      string
	Seed      int64
	AppCount  int
	Best      string
	ValueBits uint64
	Found     bool
	Evaluated int
	Hits      int64
	Misses    int64
	ExhBest   string
	ExhBits   uint64
	ExhEval   int
	ExhFeas   int
}

func summarize(t *testing.T, r *Result) summary {
	t.Helper()
	if r == nil {
		t.Fatal("nil result in completed sweep")
	}
	s := summary{
		Name:      r.Name,
		Seed:      r.Seed,
		AppCount:  r.AppCount,
		ValueBits: math.Float64bits(r.BestValue),
		Found:     r.FoundBest,
		Evaluated: r.Evaluated,
		Hits:      r.CacheStats.Hits,
		Misses:    r.CacheStats.Misses,
	}
	if r.FoundBest {
		s.Best = r.Best.String()
	}
	if ex := r.Exhaustive; ex != nil {
		s.ExhBest = ex.Best.String()
		s.ExhBits = math.Float64bits(ex.BestValue)
		s.ExhEval = ex.Evaluated
		s.ExhFeas = ex.Feasible
	}
	if ex := r.JointExhaustive; ex != nil {
		s.ExhBest = ex.Best.String()
		s.ExhBits = math.Float64bits(ex.BestValue)
		s.ExhEval = ex.Evaluated
		s.ExhFeas = ex.Feasible
	}
	return s
}

func mustEqual(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := summarize(t, got[i]), summarize(t, want[i])
		if g != w {
			t.Fatalf("%s: scenario %d diverged:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// storedSweeps are one grid's runs against one store directory: cold, then
// warm (a fresh store handle, no resume), then resumed from checkpoints.
type storedSweeps struct {
	cold, warm, resumed    []*Result
	warmStore, resumeStore *store.Store
}

// sweepColdWarmResume runs scenarios memory-only and then cold, warm and
// resumed against a fresh store directory, and asserts the tier-agnostic
// half of the persistence contract: all four render bit-identically, the
// cold run neither hits the disk tier nor resumes, and the resumed run
// loads every scenario from its checkpoint record with the taskset
// grafted back on. Callers assert what their objective's point tier does.
func sweepColdWarmResume(t *testing.T, scenarios []Scenario) storedSweeps {
	t.Helper()
	baseline, err := Sweep(Config{Workers: 2}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func() *store.Store {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	run := func(st *store.Store, resume bool) []*Result {
		rs, err := Sweep(Config{Workers: 2, Store: st, Resume: resume}, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}

	var s storedSweeps
	s.cold = run(open(), false)
	mustEqual(t, "cold vs memory-only", s.cold, baseline)
	for _, r := range s.cold {
		if r.CacheStats.DiskHits != 0 {
			t.Fatalf("cold run reported disk hits: %+v", r.CacheStats)
		}
		if r.Resumed {
			t.Fatal("cold run flagged Resumed")
		}
	}

	// Warm store, fresh process (new Store handle), no resume.
	s.warmStore = open()
	s.warm = run(s.warmStore, false)
	mustEqual(t, "warm vs cold", s.warm, s.cold)

	// Resume: whole scenarios load from checkpoint records.
	s.resumeStore = open()
	s.resumed = run(s.resumeStore, true)
	mustEqual(t, "resumed vs cold", s.resumed, s.cold)
	for _, r := range s.resumed {
		if !r.Resumed {
			t.Fatalf("scenario %s did not resume from its checkpoint", r.Name)
		}
		if r.Timings == nil || r.Weights == nil {
			t.Fatalf("resumed scenario %s lost its taskset graft", r.Name)
		}
	}
	if s.resumeStore.Stats().Hits == 0 {
		t.Fatal("resume run read no records")
	}
	return s
}

// TestSweepColdWarmResumeBitIdentical pins the timing half of the point-tier
// rule: a timing point is cheaper to recompute than to store, so a stored
// timing sweep writes exactly one checkpoint record per scenario and a warm
// run without resume recomputes every point, reading nothing from disk.
func TestSweepColdWarmResumeBitIdentical(t *testing.T) {
	scenarios := storeGrid(4)
	s := sweepColdWarmResume(t, scenarios)
	for _, r := range s.warm {
		if r.CacheStats.DiskHits != 0 {
			t.Fatalf("warm timing scenario %s loaded points from disk: %+v", r.Name, r.CacheStats)
		}
	}
	if gets := s.warmStore.Stats().Gets; gets != 0 {
		t.Fatalf("warm timing run without resume read the store %d times, want 0", gets)
	}
	// Records are only ever added, so this bounds every run's writes.
	if n := s.resumeStore.Len(); n != len(scenarios) {
		t.Fatalf("timing store holds %d records, want one checkpoint per scenario (%d)", n, len(scenarios))
	}
}

// TestDesignSweepColdWarmResumeBitIdentical pins the design half: a design
// point (PSO plus polish) costs more than a store operation, so a warm run
// without resume loads every point from disk and executes none — through
// the schedule-only cache and, for the Partitioned scenario, the joint one.
func TestDesignSweepColdWarmResumeBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("design objective is slow for -short")
	}
	var budget ctrl.DesignOptions
	budget.Swarm.Particles = 6
	budget.Swarm.Iterations = 6
	scenarios := []Scenario{
		{
			Name: "shared", Seed: 1, Apps: apps.CaseStudy(),
			Objective: ObjectiveDesign, Budget: budget,
			MaxM: 3, StartList: []sched.Schedule{{1, 1, 1}, {2, 1, 1}},
		},
		{
			Name: "partitioned", Seed: 2, Apps: apps.CaseStudy(), Platform: fourWayPlatform(),
			Objective: ObjectiveDesign, Budget: budget, Partitioned: true,
			MaxM: 3, StartList: []sched.Schedule{{1, 1, 1}},
		},
	}
	s := sweepColdWarmResume(t, scenarios)
	for _, r := range s.warm {
		if st := r.CacheStats; st.DiskHits == 0 || st.Executions() != 0 {
			t.Fatalf("warm design scenario %s did not come from disk: %+v", r.Name, st)
		}
	}
	if s.cold[1].JointHybrid == nil {
		t.Fatal("partitioned scenario did not run the joint search")
	}
}

func TestSweepShardsAssembleBitIdentical(t *testing.T) {
	scenarios := storeGrid(5)
	full, err := Sweep(Config{Workers: 1}, scenarios)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Three "processes" each run one contiguous shard.
	covered := 0
	for shard := 0; shard < 3; shard++ {
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		part, err := Sweep(Config{Workers: 2, Store: st, ShardIndex: shard, ShardCount: 3}, scenarios)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{ShardIndex: shard, ShardCount: 3}
		lo, hi := cfg.shardRange(len(scenarios))
		for i, r := range part {
			if i >= lo && i < hi {
				if r == nil {
					t.Fatalf("shard %d left own scenario %d nil", shard, i)
				}
				covered++
			}
		}
	}
	if covered != len(scenarios) {
		t.Fatalf("shards covered %d scenarios, want %d", covered, len(scenarios))
	}

	// A final resume assembles the whole grid from records alone.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	assembled, err := Sweep(Config{Workers: 2, Store: st, Resume: true}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "assembled vs full", assembled, full)
}

func TestSweepShardLeavesOthersPending(t *testing.T) {
	scenarios := storeGrid(4)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	part, err := Sweep(Config{Store: st, ShardIndex: 0, ShardCount: 2}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	if part[0] == nil || part[1] == nil {
		t.Fatal("own shard scenarios missing")
	}
	if part[2] != nil || part[3] != nil {
		t.Fatal("foreign shard scenarios were computed")
	}
	if _, err := Sweep(Config{Store: st, ShardIndex: 5, ShardCount: 2}, scenarios); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestSweepResumeSkipsRecomputation pins the resume contract: after a
// completed run, resuming executes zero evaluations.
func TestSweepResumeSkipsRecomputation(t *testing.T) {
	scenarios := storeGrid(3)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Sweep(Config{Store: st}, scenarios); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Sweep(Config{Store: st2, Resume: true}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resumed {
		if !r.Resumed {
			t.Fatalf("scenario %s re-ran", r.Name)
		}
	}
	// Only checkpoint-record reads: no outcome traffic at all.
	if gets, hits := st2.Stats().Gets, st2.Stats().Hits; gets != hits || gets != int64(len(scenarios)) {
		t.Fatalf("resume store traffic gets=%d hits=%d, want %d record loads only", gets, hits, len(scenarios))
	}
}

// TestSweepCorruptRecordRecomputes pins the corruption contract end to
// end: damaging every checkpoint record degrades to recomputation with
// identical results, never a panic or a wrong answer. (Outcome records are
// the evalcache decode path, pinned in internal/engine/evalcache.)
func TestSweepCorruptRecordRecomputes(t *testing.T) {
	scenarios := storeGrid(2)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Sweep(Config{Store: st}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate every record on disk.
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, walkErr error) error {
		if walkErr != nil || d.IsDir() {
			return walkErr
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, data[:len(data)/3], 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	healed, err := Sweep(Config{Store: st2, Resume: true}, scenarios)
	if err != nil {
		t.Fatal(err)
	}
	mustEqual(t, "healed vs cold", healed, cold)
	for _, r := range healed {
		if r.Resumed {
			t.Fatal("corrupt checkpoint still resumed")
		}
	}
	if st2.Stats().Corrupt == 0 {
		t.Fatal("corruption went uncounted")
	}
}

// TestEvalNamespaceSeparates pins that scenarios with different evaluation
// spaces never share store keys, while identical ones do.
func TestEvalNamespaceSeparates(t *testing.T) {
	base := Scenario{Seed: 7}.withDefaults()
	res := func(scn Scenario) *Result {
		r, err := Run(scn)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	nsA := evalNamespace(base, res(base))

	same := Scenario{Seed: 7}.withDefaults()
	if got := evalNamespace(same, res(same)); got != nsA {
		t.Fatalf("identical scenarios hash differently: %s vs %s", got, nsA)
	}

	otherSeed := Scenario{Seed: 8}.withDefaults()
	if got := evalNamespace(otherSeed, res(otherSeed)); got == nsA {
		t.Fatal("different tasksets share a namespace")
	}

	// Search parameters must NOT change the namespace (outcomes are
	// properties of points), but they must change the checkpoint key.
	starts := []sched.Schedule{{1, 1, 1}}
	narrow := Scenario{Seed: 7, StartList: starts}.withDefaults()
	rNarrow := res(narrow)
	wide := Scenario{Seed: 7, MaxM: 9, StartList: starts}.withDefaults()
	rWide := res(wide)
	if got := evalNamespace(wide, rWide); got != nsA {
		t.Fatal("maxM changed the evaluation namespace")
	}
	if resultKey(narrow, rNarrow, starts) == resultKey(wide, rWide, starts) {
		t.Fatal("maxM did not change the checkpoint key")
	}
}
