package ctrl

import (
	"math"
	"sync"
	"testing"

	"repro/internal/lti"
	"repro/internal/mat"
	"repro/internal/race"
	"repro/internal/sched"
)

// planFixture compiles a two-mode plan with stabilizing gains on the servo
// plant, mirroring the design loop's configuration.
func planFixture(t *testing.T) (*SimPlan, []Mode, Gains, Constraints) {
	t.Helper()
	plant := servo()
	der, err := sched.Derive(paperTimings(), sched.Schedule{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	modes, err := ModesFromSchedule(plant, der[0])
	if err != nil {
		t.Fatal(err)
	}
	ks, err := PeriodicLQR(modes, 1, 1e-2)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := HolisticFeedforward(modes, ks)
	if err != nil {
		t.Fatal(err)
	}
	cons := Constraints{Ref: 0.2, UMax: 60, SettleDeadline: 45e-3}.withDefaults()
	opt := SimOptions{Horizon: 0.1, InitialGap: der[0].Gap}
	plan, err := CompileSimPlan(plant, modes, opt)
	if err != nil {
		t.Fatal(err)
	}
	return plan, modes, Gains{K: ks, F: fs}, cons
}

// TestSimPlanSimulateMatchesPackageSimulate: the plan's dense run and the
// one-shot package Simulate must produce bit-identical trajectories (they
// share the core loop, but the plan also memoizes discretizations).
func TestSimPlanSimulateMatchesPackageSimulate(t *testing.T) {
	plan, modes, g, cons := planFixture(t)
	plant := servo()
	der, _ := sched.Derive(paperTimings(), sched.Schedule{2, 2, 2})
	opt := SimOptions{Horizon: 0.1, InitialGap: der[0].Gap}

	want, err := Simulate(plant, modes, g, cons.Ref, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := plan.Simulate(g, cons.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dense) != len(want.Dense) || len(got.Times) != len(want.Times) {
		t.Fatalf("shape mismatch: dense %d/%d times %d/%d",
			len(got.Dense), len(want.Dense), len(got.Times), len(want.Times))
	}
	for i := range want.Dense {
		if got.Dense[i] != want.Dense[i] {
			t.Fatalf("dense[%d]: %+v != %+v", i, got.Dense[i], want.Dense[i])
		}
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] || got.Outputs[i] != want.Outputs[i] || got.Inputs[i] != want.Inputs[i] {
			t.Fatalf("instant %d differs", i)
		}
	}
}

// TestSimPlanFinalTime pins the precompiled final dense time the cutoff
// bound normalizes ITAE with: it must equal the last dense sample's time
// of a completed run bit for bit, whatever the gains.
func TestSimPlanFinalTime(t *testing.T) {
	plan, _, g, cons := planFixture(t)
	weak := Gains{K: []*mat.Matrix{mat.RowVec(0.01, 0), mat.RowVec(0, 0.001)}, F: []float64{0.5, 0.5}}
	for _, gains := range []Gains{g, weak} {
		tr, err := plan.Simulate(gains, cons.Ref)
		if err != nil {
			t.Fatal(err)
		}
		if last := tr.Dense[len(tr.Dense)-1].T; math.Float64bits(last) != math.Float64bits(plan.tEnd) {
			t.Fatalf("last dense time %v, precompiled %v", last, plan.tEnd)
		}
	}
}

// denseMetrics derives SimMetrics from a recorded trajectory through the
// original dense-slice computations; the streaming path must match it bit
// for bit.
func denseMetrics(tr *Trajectory, r, band, violFrom, violBand float64) SimMetrics {
	info := tr.Evaluate(r, band)
	m := SimMetrics{
		SettlingTime:  info.SettlingTime,
		Settled:       info.Settled,
		PeakInput:     info.PeakInput,
		PeakOutput:    info.PeakOutput,
		ITAE:          tr.ITAE(r),
		BandViolation: tr.BandViolationFraction(violFrom, r, violBand),
		FinalError:    tr.FinalError(r),
	}
	if info.Settled {
		m.MaxDevAfterSettle = tr.MaxDenseDeviationAfter(info.SettlingTime, r)
	}
	return m
}

// TestSimPlanMetricsMatchDense is the load-bearing equivalence test of this
// package: the streaming observer must reproduce every dense-derived
// objective statistic exactly, across settling and non-settling gain sets,
// so the PSO search (and hence all golden tables) cannot move.
func TestSimPlanMetricsMatchDense(t *testing.T) {
	plan, _, g, cons := planFixture(t)
	band := 0.9 * cons.Band
	violFrom := plan.Horizon() / 2

	gainSets := []Gains{g}
	// Scaled-down gains: sluggish, typically unsettled within the horizon.
	for _, sc := range []float64{0.3, 0.05, 0.0} {
		weak := Gains{K: make([]*mat.Matrix, len(g.K)), F: make([]float64, len(g.F))}
		for j := range g.K {
			weak.K[j] = g.K[j].Scale(sc)
			weak.F[j] = g.F[j] * sc
		}
		gainSets = append(gainSets, weak)
	}

	for gi, gs := range gainSets {
		tr, err := plan.Simulate(gs, cons.Ref)
		if err != nil {
			t.Fatalf("gains %d: %v", gi, err)
		}
		want := denseMetrics(tr, cons.Ref, band, violFrom, band)
		got, err := plan.Metrics(gs, cons.Ref, band, violFrom, band)
		if err != nil {
			t.Fatalf("gains %d: %v", gi, err)
		}
		if got != want {
			t.Errorf("gains %d (settled=%v):\n got %+v\nwant %+v", gi, want.Settled, got, want)
		}
	}
}

// TestSimPlanMetricsConcurrent hammers one plan from many goroutines (the
// PSO evaluates objectives concurrently) and checks every run returns the
// same metrics; run under -race in CI this also proves pool safety.
func TestSimPlanMetricsConcurrent(t *testing.T) {
	plan, _, g, cons := planFixture(t)
	band := 0.9 * cons.Band
	ref, err := plan.Metrics(g, cons.Ref, band, plan.Horizon()/2, band)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]SimMetrics, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := plan.Metrics(g, cons.Ref, band, plan.Horizon()/2, band)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = m
		}(i)
	}
	wg.Wait()
	for i, m := range results {
		if m != ref {
			t.Fatalf("run %d diverged from reference", i)
		}
	}
}

// TestSimPlanMetricsAllocs pins the streaming objective path to a small
// fixed allocation budget: the scratch pool must absorb the state vectors,
// and no per-sample storage may be materialized.
func TestSimPlanMetricsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	plan, _, g, cons := planFixture(t)
	band := 0.9 * cons.Band
	violFrom := plan.Horizon() / 2
	// Warm the scratch pool.
	if _, err := plan.Metrics(g, cons.Ref, band, violFrom, band); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := plan.Metrics(g, cons.Ref, band, violFrom, band); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("streaming Metrics allocates %v per run, want <= 2", allocs)
	}
}

// TestSimPlanDivergenceAndValidation mirrors the legacy Simulate error
// contract on the plan paths.
func TestSimPlanDivergenceAndValidation(t *testing.T) {
	plant := servo()
	d, _ := lti.DiscretizeDelayed(plant, 1e-3, 0.5e-3)
	modes := []Mode{{D: d}}
	plan, err := CompileSimPlan(plant, modes, SimOptions{Horizon: 5, X0: mat.ColVec(0.1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	blowup := Gains{K: []*mat.Matrix{mat.RowVec(1e6, 1e6)}, F: []float64{0}}
	if _, err := plan.Metrics(blowup, 0.2, 0.02, 2.5, 0.02); err == nil {
		// Divergence to non-finite must surface as an error on the
		// streaming path exactly as it does on the dense one.
		if _, derr := plan.Simulate(blowup, 0.2); derr != nil {
			t.Error("dense path errored but streaming did not")
		}
	}
	bad := Gains{K: []*mat.Matrix{mat.RowVec(0)}, F: []float64{1}}
	if _, err := plan.Metrics(bad, 1, 0.02, 2.5, 0.02); err == nil {
		t.Error("wrong gain shape accepted by Metrics")
	}
	if _, err := CompileSimPlan(plant, nil, SimOptions{Horizon: 1}); err == nil {
		t.Error("no modes accepted")
	}
	if _, err := CompileSimPlan(plant, modes, SimOptions{}); err == nil {
		t.Error("zero horizon accepted")
	}
}

// TestDesignObjectiveStreamingMatchesDense recomputes the objective from a
// recorded trajectory (the pre-plan formula) and requires exact agreement
// with the streaming designObjective.
func TestDesignObjectiveStreamingMatchesDense(t *testing.T) {
	plan, modes, g, cons := planFixture(t)

	denseObjective := func(g Gains) float64 {
		stable, rho, err := StableMonodromy(modes, g)
		if err != nil || math.IsNaN(rho) {
			return 1e6
		}
		if !stable {
			return 1e3 * (1 + rho)
		}
		tr, err := plan.Simulate(g, cons.Ref)
		if err != nil {
			return 1e5
		}
		info := tr.Evaluate(cons.Ref, 0.9*cons.Band)
		obj := info.SettlingTime + 0.25*plan.Horizon()*tr.ITAE(cons.Ref)
		if !info.Settled {
			viol := tr.BandViolationFraction(plan.Horizon()/2, cons.Ref, 0.9*cons.Band)
			obj = plan.Horizon() * (1.5 + viol + tr.FinalError(cons.Ref)/math.Abs(cons.Ref))
		} else {
			if rip := tr.MaxDenseDeviationAfter(info.SettlingTime, cons.Ref); rip > 5*cons.Band*math.Abs(cons.Ref) {
				obj += plan.Horizon() * (rip/(5*cons.Band*math.Abs(cons.Ref)) - 1)
			}
		}
		if cons.UMax > 0 && info.PeakInput > cons.UMax {
			obj += plan.Horizon() * 5 * (info.PeakInput/cons.UMax - 1)
		}
		return obj
	}

	for _, sc := range []float64{1, 0.5, 0.1, 0.01, 0} {
		scaled := Gains{K: make([]*mat.Matrix, len(g.K)), F: make([]float64, len(g.F))}
		for j := range g.K {
			scaled.K[j] = g.K[j].Scale(sc)
			scaled.F[j] = g.F[j] * sc
		}
		want := denseObjective(scaled)
		got := designObjective(plan, modes, scaled, cons)
		if got != want {
			t.Errorf("scale %g: streaming objective %v != dense %v", sc, got, want)
		}
	}
}
