package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// heapSporadicTimeline is the retained reference implementation of the
// sporadic timeline: it reseeds the jitter source on every call and serves
// releases from a container/heap priority queue. SporadicPlan.Timeline
// replaced it with draws shared across calls and one sort; this copy is the
// executable specification the production timeline must match bit for bit.
func heapSporadicTimeline(apps []AppTiming, s Schedule, arr Arrival) ([]BurstEvent, error) {
	return heapTimelineDraws(apps, s, arr, func(rng *rand.Rand) float64 { return rng.Float64() })
}

// heapTimelineDraws is heapSporadicTimeline with the draw of each u_{k,i}
// (taken in the reference's cycle-outer/app-inner order) supplied by draw,
// so tests can force exactly equal releases.
func heapTimelineDraws(apps []AppTiming, s Schedule, arr Arrival, draw func(*rand.Rand) float64) ([]BurstEvent, error) {
	if !s.Valid(len(apps)) {
		return nil, fmt.Errorf("sched: schedule %v invalid for %d applications", s, len(apps))
	}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	arr = arr.WithDefaults()
	if err := arr.Validate(); err != nil {
		return nil, err
	}

	period := PeriodLength(apps, s)
	phase := make([]float64, len(apps))
	for i := 1; i < len(apps); i++ {
		phase[i] = phase[i-1] + BurstLength(apps[i-1], s[i-1])
	}

	rng := rand.New(rand.NewSource(arr.Seed))
	pending := make(refReleaseHeap, 0, len(apps)*arr.Cycles)
	for k := 0; k < arr.Cycles; k++ {
		for i := range apps {
			u := draw(rng)
			pending = append(pending, refRelease{
				release: float64(k)*period + phase[i] + u*arr.Jitter*period,
				app:     i,
				cycle:   k,
			})
		}
	}
	heap.Init(&pending)

	events := make([]BurstEvent, 0, len(pending))
	t := 0.0
	for pending.Len() > 0 {
		ev := heap.Pop(&pending).(refRelease)
		if ev.release > t {
			t = ev.release
		}
		start := t
		t += BurstLength(apps[ev.app], s[ev.app])
		events = append(events, BurstEvent{App: ev.app, Cycle: ev.cycle, Release: ev.release, Start: start, End: t})
	}
	return events, nil
}

type refRelease struct {
	release float64
	app     int
	cycle   int
}

type refReleaseHeap []refRelease

func (h refReleaseHeap) Len() int { return len(h) }
func (h refReleaseHeap) Less(i, j int) bool {
	switch {
	case h[i].release != h[j].release:
		return h[i].release < h[j].release
	case h[i].app != h[j].app:
		return h[i].app < h[j].app
	}
	return h[i].cycle < h[j].cycle
}
func (h refReleaseHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refReleaseHeap) Push(x any)   { *h = append(*h, x.(refRelease)) }
func (h *refReleaseHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// sameEvents compares two timelines bit for bit (float fields by their
// IEEE-754 bits, so -0/+0 or a NaN could not hide a difference).
func sameEvents(t *testing.T, what string, got, want []BurstEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events, reference %d", what, len(got), len(want))
	}
	for j := range got {
		g, w := got[j], want[j]
		if g.App != w.App || g.Cycle != w.Cycle ||
			math.Float64bits(g.Release) != math.Float64bits(w.Release) ||
			math.Float64bits(g.Start) != math.Float64bits(w.Start) ||
			math.Float64bits(g.End) != math.Float64bits(w.End) {
			t.Fatalf("%s: event %d = %+v, reference %+v", what, j, g, w)
		}
	}
}

// TestSporadicTimelineMatchesHeapReference: over random tasksets,
// schedules, jitters (zero and near-one included), seeds and cycle counts,
// the plan-based timeline — through SporadicTimeline and through one plan
// reused for many schedules — reproduces the heap reference event for
// event, and the plan's recycled-buffer Stats reduce it identically.
func TestSporadicTimelineMatchesHeapReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(5)
		apps := make([]AppTiming, n)
		for i := range apps {
			cold := 1e-4 * float64(1+r.Intn(8))
			warm := cold * float64(1+r.Intn(4)) / 4
			apps[i] = AppTiming{Name: fmt.Sprintf("A%d", i), ColdWCET: cold, WarmWCET: warm, MaxIdle: 5e-3}
		}
		arr := Arrival{Model: ArrivalSporadic, Seed: r.Int63n(1000), Cycles: []int{0, 2, 3, 17, 64}[r.Intn(5)]}
		switch trial % 4 {
		case 0:
			// Zero jitter: every release sits on the nominal grid.
		case 1:
			arr.Jitter = 0.999
		default:
			arr.Jitter = r.Float64() * 0.9
		}
		plan := NewSporadicPlan(apps, arr)
		for k := 0; k < 4; k++ {
			s := make(Schedule, n)
			for i := range s {
				s[i] = 1 + r.Intn(4)
			}
			want, err := heapSporadicTimeline(apps, s, arr)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("trial %d apps %d s %v arr %+v", trial, n, s, arr)
			got, err := plan.Timeline(s)
			if err != nil {
				t.Fatal(err)
			}
			sameEvents(t, what+" (plan)", got, want)
			got, err = SporadicTimeline(apps, s, arr)
			if err != nil {
				t.Fatal(err)
			}
			sameEvents(t, what+" (SporadicTimeline)", got, want)
			stats, err := plan.Stats(s)
			if err != nil {
				t.Fatal(err)
			}
			if ref := SporadicStats(apps, s, want); !reflect.DeepEqual(stats, ref) {
				t.Fatalf("%s: Stats %+v, reference %+v", what, stats, ref)
			}
		}
	}
}

// TestSporadicTimelineForcedTiesMatchHeapReference: seeded draws never tie
// exactly, so this test feeds the reference and a plan the same quantized
// draws over dyadic burst lengths. Releases then coincide exactly — within
// one cycle and across cycles — and the (release, app, cycle) tie-break of
// the reference's Less decides the service order.
func TestSporadicTimelineForcedTiesMatchHeapReference(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	ties := 0
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(4)
		apps := make([]AppTiming, n)
		for i := range apps {
			apps[i] = AppTiming{Name: fmt.Sprintf("A%d", i), ColdWCET: float64(1 + r.Intn(2)), WarmWCET: 0.5}
		}
		s := make(Schedule, n)
		for i := range s {
			s[i] = 1 + r.Intn(3)
		}
		arr := Arrival{Model: ArrivalSporadic, Jitter: 0.5, Cycles: 2 + r.Intn(8)}
		u := make([]float64, n*arr.Cycles)
		for j := range u {
			u[j] = float64(r.Intn(5)) / 4
		}
		next := 0
		want, err := heapTimelineDraws(apps, s, arr, func(*rand.Rand) float64 { next++; return u[next-1] })
		if err != nil {
			t.Fatal(err)
		}
		plan := NewSporadicPlan(apps, arr)
		plan.u = u
		got, err := plan.Timeline(s)
		if err != nil {
			t.Fatal(err)
		}
		sameEvents(t, fmt.Sprintf("trial %d s %v u %v", trial, s, u), got, want)
		for j := 1; j < len(want); j++ {
			if want[j].Release == want[j-1].Release {
				ties++
			}
		}
	}
	if ties < 30 {
		t.Fatalf("only %d exactly equal release pairs: the test no longer forces ties", ties)
	}
}

// TestSporadicPlanErrorsStable: checks of the fixed inputs run once, when
// the plan is built, and every call then reports the same error — after
// the per-call schedule check, in the order the reference reports them.
func TestSporadicPlanErrorsStable(t *testing.T) {
	good := arrivalApps()
	bad := append([]AppTiming(nil), good...)
	bad[1].WarmWCET = 2 * bad[1].ColdWCET
	cases := []struct {
		apps []AppTiming
		arr  Arrival
	}{
		{good, Arrival{Model: ArrivalSporadic, Jitter: 1.5, Seed: 1}},
		{good, Arrival{Model: ArrivalSporadic, Jitter: 0.2, Cycles: 1}},
		{bad, Arrival{Model: ArrivalSporadic, Jitter: 0.2}},
		{bad, Arrival{Model: ArrivalSporadic, Jitter: 7}},
	}
	for _, c := range cases {
		plan := NewSporadicPlan(c.apps, c.arr)
		for _, s := range []Schedule{{1, 1, 1}, {2, 1, 3}, {1, 1}, {0, 1, 1}} {
			_, want := heapSporadicTimeline(c.apps, s, c.arr)
			if want == nil {
				t.Fatalf("reference accepted %v under %+v", s, c.arr)
			}
			for call := 0; call < 2; call++ {
				_, got := plan.Timeline(s)
				if got == nil || got.Error() != want.Error() {
					t.Fatalf("arr %+v s %v call %d: error %v, reference %v", c.arr, s, call, got, want)
				}
			}
		}
	}
}
