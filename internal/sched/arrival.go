// Arrival models: the paper's schedules assume strictly periodic bursts
// (every application's burst k starts exactly k schedule periods after its
// burst 0). The sporadic model relaxes that with seeded bounded release
// jitter: burst k of application i is *released* at
//
//	r_i(k) = k*T + phase_i + u_{k,i} * Jitter * T
//
// where T is the nominal schedule period, phase_i the application's burst
// offset within it, and u_{k,i} uniform in [0, 1) drawn from a fixed seed —
// releases never arrive early, only up to Jitter*T late. Released bursts
// are served FCFS and non-preemptively, in (release, app, cycle) order, by
// one event loop (SporadicPlan.Timeline, over jitter drawn once per
// taskset), which replaces the closed-form burst-gap timing when jitter is
// nonzero. With zero jitter the event loop reproduces the
// closed-form Timeline up to floating-point accumulation (the engine
// normalizes that case back to the periodic path, keeping it bit-exact).
package sched

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
)

// ArrivalModel selects how bursts of a schedule are released over time.
type ArrivalModel int

const (
	// ArrivalPeriodic is the paper's model: burst starts are determined by
	// the schedule alone.
	ArrivalPeriodic ArrivalModel = iota
	// ArrivalSporadic adds seeded bounded release jitter per burst.
	ArrivalSporadic
)

// String names the model for signatures and error messages.
func (m ArrivalModel) String() string {
	switch m {
	case ArrivalPeriodic:
		return "periodic"
	case ArrivalSporadic:
		return "sporadic"
	}
	return fmt.Sprintf("ArrivalModel(%d)", int(m))
}

// DefaultArrivalCycles is the number of schedule periods a sporadic
// timeline simulates when the caller leaves Cycles unset.
const DefaultArrivalCycles = 64

// Arrival configures the burst release model of a scenario. The zero value
// is the periodic model.
type Arrival struct {
	Model  ArrivalModel `json:"model"`
	Jitter float64      `json:"jitter"` // max late release, as a fraction of the schedule period, in [0, 1)
	Seed   int64        `json:"seed"`   // seed of the jitter draws
	Cycles int          `json:"cycles"` // schedule periods to simulate; 0 means DefaultArrivalCycles
}

// Sporadic reports whether the arrival model actually deviates from the
// periodic one: sporadic with zero jitter is periodic.
func (a Arrival) Sporadic() bool { return a.Model == ArrivalSporadic && a.Jitter > 0 }

// WithDefaults resolves unset fields.
func (a Arrival) WithDefaults() Arrival {
	if a.Cycles == 0 {
		a.Cycles = DefaultArrivalCycles
	}
	return a
}

// Validate checks the arrival configuration.
func (a Arrival) Validate() error {
	switch {
	case a.Model != ArrivalPeriodic && a.Model != ArrivalSporadic:
		return fmt.Errorf("sched: unknown arrival model %d", int(a.Model))
	case a.Jitter < 0 || a.Jitter >= 1:
		return fmt.Errorf("sched: arrival jitter %g outside [0, 1)", a.Jitter)
	case a.Model == ArrivalPeriodic && a.Jitter != 0:
		return fmt.Errorf("sched: periodic arrivals cannot carry jitter %g", a.Jitter)
	case a.Cycles < 0 || a.Cycles == 1:
		return fmt.Errorf("sched: arrival cycles %d must be 0 (default) or >= 2", a.Cycles)
	}
	return nil
}

// BurstEvent is one executed burst in a sporadic timeline: application App's
// burst of cycle k, released at Release, started at Start >= Release
// (waiting behind earlier-released bursts), finished at End.
type BurstEvent struct {
	App     int
	Cycle   int
	Release float64
	Start   float64
	End     float64
}

// SporadicPlan is the schedule-independent part of a sporadic timeline over
// a fixed taskset: the checked inputs and the seeded jitter draws. The draws
// u_{k,i} depend only on (Seed, Cycles, len(apps)), so a plan draws them once
// and every Timeline call shares them read-only; a plan is safe for
// concurrent use.
type SporadicPlan struct {
	apps []AppTiming
	arr  Arrival
	u    []float64 // u[k*len(apps)+i] is the draw of app i's burst k
	err  error     // the first failed check of apps or arr, returned by every call

	scratch sync.Pool // *[]BurstEvent timelines Stats reduces and recycles
}

// NewSporadicPlan checks apps and arr once and draws every release jitter
// up front, cycle-outer/application-inner, so the draw order (and hence
// every timeline) is a pure function of the seed. A failed check does not
// fail here: every Timeline call returns it, after the schedule check, in
// the order SporadicTimeline reports errors.
func NewSporadicPlan(apps []AppTiming, arr Arrival) *SporadicPlan {
	p := &SporadicPlan{apps: apps, arr: arr.WithDefaults()}
	for _, a := range apps {
		if err := a.Validate(); err != nil {
			p.err = err
			return p
		}
	}
	if err := p.arr.Validate(); err != nil {
		p.err = err
		return p
	}
	rng := rand.New(rand.NewSource(p.arr.Seed))
	p.u = make([]float64, len(apps)*p.arr.Cycles)
	for j := range p.u {
		p.u[j] = rng.Float64()
	}
	return p
}

// Timeline simulates the plan's schedule periods of jittered burst releases
// under schedule s, served FCFS and non-preemptively, and returns the
// executed bursts in start order; see SporadicTimeline.
func (p *SporadicPlan) Timeline(s Schedule) ([]BurstEvent, error) {
	return p.timeline(s, make([]BurstEvent, 0, len(p.u)))
}

// Stats is SporadicStats of Timeline(s). The timeline itself is not kept,
// so its buffer is recycled across calls: scoring a schedule allocates only
// the statistics.
func (p *SporadicPlan) Stats(s Schedule) ([]ArrivalStats, error) {
	buf, _ := p.scratch.Get().(*[]BurstEvent)
	if buf == nil {
		buf = new([]BurstEvent)
	}
	events, err := p.timeline(s, (*buf)[:0])
	if err != nil {
		return nil, err
	}
	stats := SporadicStats(p.apps, s, events)
	*buf = events
	p.scratch.Put(buf)
	return stats, nil
}

// timeline is the one event loop behind Timeline and Stats: it appends the
// executed bursts of s, in start order, to events.
func (p *SporadicPlan) timeline(s Schedule, events []BurstEvent) ([]BurstEvent, error) {
	if !s.Valid(len(p.apps)) {
		return nil, fmt.Errorf("sched: schedule %v invalid for %d applications", s, len(p.apps))
	}
	if p.err != nil {
		return nil, p.err
	}

	period := PeriodLength(p.apps, s)
	phase := make([]float64, len(p.apps))
	for i := 1; i < len(p.apps); i++ {
		phase[i] = phase[i-1] + BurstLength(p.apps[i-1], s[i-1])
	}

	// Releases are computed from k*period, not accumulated, so jitter never
	// drifts the nominal grid. Sorting by (release, app, cycle) — a strict
	// total order, so the result is unique — gives the FCFS service order.
	for k := 0; k < p.arr.Cycles; k++ {
		for i := range p.apps {
			u := p.u[k*len(p.apps)+i]
			events = append(events, BurstEvent{
				App:     i,
				Cycle:   k,
				Release: float64(k)*period + phase[i] + u*p.arr.Jitter*period,
			})
		}
	}
	slices.SortFunc(events, func(a, b BurstEvent) int {
		switch {
		case a.Release != b.Release:
			return cmp.Compare(a.Release, b.Release)
		case a.App != b.App:
			return a.App - b.App
		}
		return a.Cycle - b.Cycle
	})

	t := 0.0
	for j := range events {
		ev := &events[j]
		if ev.Release > t {
			t = ev.Release
		}
		ev.Start = t
		t += BurstLength(p.apps[ev.App], s[ev.App])
		ev.End = t
	}
	return events, nil
}

// SporadicTimeline simulates arr.Cycles schedule periods of jittered burst
// releases served FCFS and non-preemptively, and returns the executed
// bursts in start order. Every burst conservatively starts with the
// cold-cache WCET (under jitter, other applications' bursts can interleave
// arbitrarily between two bursts of one application, so no cross-burst
// cache reuse is assumed). The same (apps, s, arr) always yields the same
// timeline. Callers timing many schedules of one taskset build one
// SporadicPlan instead, which draws the jitter once.
func SporadicTimeline(apps []AppTiming, s Schedule, arr Arrival) ([]BurstEvent, error) {
	return NewSporadicPlan(apps, arr).Timeline(s)
}

// ArrivalStats summarizes the sampling behaviour one application actually
// experienced in a sporadic timeline, over the starts of its individual
// tasks (tasks inside a burst run back-to-back, first cold, rest warm):
// the mean and maximum difference between consecutive task starts — the
// empirical counterparts of DerivedHyperPeriod/m and DerivedMaxPeriod.
type ArrivalStats struct {
	Tasks      int     // task starts observed
	MeanPeriod float64 // mean consecutive-start difference
	MaxPeriod  float64 // max consecutive-start difference
}

// SporadicStats reduces a timeline from SporadicTimeline to per-application
// arrival statistics, in application order.
func SporadicStats(apps []AppTiming, s Schedule, events []BurstEvent) []ArrivalStats {
	type acc struct {
		last  float64
		seen  bool
		count int
		sum   float64
		max   float64
	}
	accs := make([]acc, len(apps))
	for _, ev := range events {
		a := &accs[ev.App]
		start := ev.Start
		for j := 0; j < s[ev.App]; j++ {
			if a.seen {
				d := start - a.last
				a.sum += d
				a.count++
				if d > a.max {
					a.max = d
				}
			}
			a.last = start
			a.seen = true
			w := apps[ev.App].WarmWCET
			if j == 0 {
				w = apps[ev.App].ColdWCET
			}
			start += w
		}
	}
	out := make([]ArrivalStats, len(apps))
	for i, a := range accs {
		out[i] = ArrivalStats{Tasks: a.count + 1, MaxPeriod: a.max}
		if a.count > 0 {
			out[i].MeanPeriod = a.sum / float64(a.count)
		} else {
			out[i].Tasks = 0
		}
	}
	return out
}
