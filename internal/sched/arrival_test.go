package sched

import (
	"math"
	"reflect"
	"testing"
)

func arrivalApps() []AppTiming {
	return []AppTiming{
		{Name: "C1", ColdWCET: 300e-6, WarmWCET: 200e-6, MaxIdle: 3e-3},
		{Name: "C2", ColdWCET: 400e-6, WarmWCET: 250e-6, MaxIdle: 4e-3},
		{Name: "C3", ColdWCET: 500e-6, WarmWCET: 300e-6, MaxIdle: 5e-3},
	}
}

func TestArrivalValidate(t *testing.T) {
	good := []Arrival{
		{},
		{Model: ArrivalSporadic},
		{Model: ArrivalSporadic, Jitter: 0.25, Seed: 7, Cycles: 16},
		{Model: ArrivalSporadic, Jitter: 0.999},
	}
	for _, a := range good {
		if err := a.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", a, err)
		}
	}
	bad := []Arrival{
		{Model: ArrivalModel(9)},
		{Model: ArrivalSporadic, Jitter: -0.1},
		{Model: ArrivalSporadic, Jitter: 1.0},
		{Jitter: 0.1}, // periodic with jitter
		{Model: ArrivalSporadic, Jitter: 0.1, Cycles: 1},
		{Model: ArrivalSporadic, Jitter: 0.1, Cycles: -3},
	}
	for _, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("%+v accepted", a)
		}
	}
	if (Arrival{Model: ArrivalSporadic}).Sporadic() {
		t.Error("zero-jitter sporadic must count as periodic")
	}
	if !(Arrival{Model: ArrivalSporadic, Jitter: 0.1}).Sporadic() {
		t.Error("jittered sporadic not reported as sporadic")
	}
	if got := (Arrival{}).WithDefaults().Cycles; got != DefaultArrivalCycles {
		t.Errorf("default cycles = %d, want %d", got, DefaultArrivalCycles)
	}
}

// TestSporadicZeroJitterMatchesClosedForm: with zero jitter the event
// timeline reproduces the closed-form periodic layout — every burst of
// cycle k starts at k*T + phase_i up to floating-point accumulation.
func TestSporadicZeroJitterMatchesClosedForm(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 1, 3}
	arr := Arrival{Model: ArrivalSporadic, Seed: 11, Cycles: 8}
	events, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(apps)*arr.Cycles {
		t.Fatalf("%d events, want %d", len(events), len(apps)*arr.Cycles)
	}
	period := PeriodLength(apps, s)
	slots, err := Timeline(apps, s)
	if err != nil {
		t.Fatal(err)
	}
	// Burst phase of app i = start of its first slot in the closed form.
	phase := make([]float64, len(apps))
	for i := len(slots) - 1; i >= 0; i-- {
		if slots[i].Task == 1 {
			phase[slots[i].App] = slots[i].Start
		}
	}
	tol := 1e-9 * period
	for _, ev := range events {
		want := float64(ev.Cycle)*period + phase[ev.App]
		if math.Abs(ev.Start-want) > tol {
			t.Fatalf("app %d cycle %d starts at %g, closed form %g", ev.App, ev.Cycle, ev.Start, want)
		}
		if math.Abs(ev.End-ev.Start-BurstLength(apps[ev.App], s[ev.App])) > tol {
			t.Fatalf("app %d cycle %d burst length %g, want %g",
				ev.App, ev.Cycle, ev.End-ev.Start, BurstLength(apps[ev.App], s[ev.App]))
		}
	}
}

func TestSporadicTimelineDeterministic(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{1, 2, 1}
	arr := Arrival{Model: ArrivalSporadic, Jitter: 0.3, Seed: 42, Cycles: 32}
	a, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different timelines")
	}
	arr.Seed = 43
	c, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical jittered timelines")
	}
}

// TestSporadicTimelineSane: releases stay within their jitter window,
// bursts never start before their release, starts are non-decreasing
// (FCFS), and the processor never runs two bursts at once.
func TestSporadicTimelineSane(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 3, 1}
	arr := Arrival{Model: ArrivalSporadic, Jitter: 0.4, Seed: 5, Cycles: 64}
	events, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	period := PeriodLength(apps, s)
	phase := []float64{0, BurstLength(apps[0], s[0]), BurstLength(apps[0], s[0]) + BurstLength(apps[1], s[1])}
	prevStart, prevEnd := math.Inf(-1), math.Inf(-1)
	for _, ev := range events {
		nominal := float64(ev.Cycle)*period + phase[ev.App]
		if ev.Release < nominal-1e-12 || ev.Release > nominal+arr.Jitter*period+1e-12 {
			t.Fatalf("app %d cycle %d released at %g outside [%g, %g]",
				ev.App, ev.Cycle, ev.Release, nominal, nominal+arr.Jitter*period)
		}
		if ev.Start < ev.Release {
			t.Fatalf("burst started at %g before release %g", ev.Start, ev.Release)
		}
		if ev.Start < prevStart {
			t.Fatal("starts not in FCFS order")
		}
		if ev.Start < prevEnd-1e-12 {
			t.Fatalf("burst at %g overlaps previous ending %g", ev.Start, prevEnd)
		}
		prevStart, prevEnd = ev.Start, ev.End
	}
}

// TestSporadicStatsZeroJitterMatchDerived: with zero jitter the empirical
// per-app stats reproduce the closed-form derivation — max consecutive-start
// difference equals DerivedMaxPeriod, and the mean approaches
// DerivedHyperPeriod/m as cycles grow.
func TestSporadicStatsZeroJitterMatchDerived(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 1, 3}
	arr := Arrival{Model: ArrivalSporadic, Seed: 3, Cycles: 256}
	events, err := SporadicTimeline(apps, s, arr)
	if err != nil {
		t.Fatal(err)
	}
	stats := SporadicStats(apps, s, events)
	for i, app := range apps {
		gap := BurstGap(apps, s, i)
		wantMax := DerivedMaxPeriod(app, s[i], gap)
		if math.Abs(stats[i].MaxPeriod-wantMax) > 1e-9*wantMax {
			t.Errorf("app %d: empirical max period %g, derived %g", i, stats[i].MaxPeriod, wantMax)
		}
		wantMean := DerivedHyperPeriod(app, s[i], gap) / float64(s[i])
		if rel := math.Abs(stats[i].MeanPeriod-wantMean) / wantMean; rel > 0.02 {
			t.Errorf("app %d: empirical mean period %g, derived %g (rel %g)", i, stats[i].MeanPeriod, wantMean, rel)
		}
		if stats[i].Tasks != s[i]*arr.Cycles {
			t.Errorf("app %d: %d tasks observed, want %d", i, stats[i].Tasks, s[i]*arr.Cycles)
		}
	}
}

// TestSporadicJitterDegradesPeriods: on this taskset and seed, adding
// release jitter stretches the worst observed sampling period of at least
// one application — the degradation Table VI measures.
func TestSporadicJitterDegradesPeriods(t *testing.T) {
	apps := arrivalApps()
	s := Schedule{2, 1, 3}
	base, err := SporadicTimeline(apps, s, Arrival{Model: ArrivalSporadic, Seed: 7, Cycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	jit, err := SporadicTimeline(apps, s, Arrival{Model: ArrivalSporadic, Jitter: 0.3, Seed: 7, Cycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	bs, js := SporadicStats(apps, s, base), SporadicStats(apps, s, jit)
	worse := false
	for i := range apps {
		if js[i].MaxPeriod > bs[i].MaxPeriod+1e-12 {
			worse = true
		}
	}
	if !worse {
		t.Error("0.3 jitter did not stretch any application's max period")
	}
}
