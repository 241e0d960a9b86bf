package sched

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randomTimings(r *rand.Rand, n int) []AppTiming {
	apps := make([]AppTiming, n)
	for i := range apps {
		cold := 1e-6 * (10 + 90*r.Float64())
		apps[i] = AppTiming{
			Name:     fmt.Sprintf("A%d", i),
			ColdWCET: cold,
			WarmWCET: cold * (0.3 + 0.7*r.Float64()),
		}
	}
	rr := PeriodLength(apps, RoundRobin(n))
	for i := range apps {
		switch r.Intn(3) {
		case 0:
			apps[i].MaxIdle = 0 // unconstrained
		default:
			apps[i].MaxIdle = rr * (0.8 + 3*r.Float64())
		}
	}
	return apps
}

func randomSchedule(r *rand.Rand, n, maxM int) Schedule {
	s := make(Schedule, n)
	for i := range s {
		s[i] = 1 + r.Intn(maxM)
	}
	return s
}

// idleFeasibleReference is the original Derive-based formulation, kept as
// the bit-identity reference for the closed-form IdleFeasible.
func idleFeasibleReference(apps []AppTiming, s Schedule) (bool, error) {
	der, err := Derive(apps, s)
	if err != nil {
		return false, err
	}
	for i, a := range der {
		if apps[i].MaxIdle > 0 && a.MaxPeriod() > apps[i].MaxIdle+1e-12 {
			return false, nil
		}
	}
	return true, nil
}

// TestIdleFeasibleMatchesDerive pins the allocation-free IdleFeasible
// against the Derive-based reference across random tasksets, including the
// error paths.
func TestIdleFeasibleMatchesDerive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(5)
		apps := randomTimings(r, n)
		s := randomSchedule(r, n, 8)
		want, errW := idleFeasibleReference(apps, s)
		got, errG := IdleFeasible(apps, s)
		if want != got || (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: fast (%v, %v) vs reference (%v, %v) for %v", trial, got, errG, want, errW, s)
		}
	}
	// Error paths: invalid schedule, invalid timing.
	apps := randomTimings(r, 2)
	for _, bad := range []Schedule{{1}, {0, 1}, {1, 1, 1}} {
		want, errW := idleFeasibleReference(apps, bad)
		got, errG := IdleFeasible(apps, bad)
		if want != got || (errW == nil) != (errG == nil) {
			t.Fatalf("schedule %v: fast (%v, %v) vs reference (%v, %v)", bad, got, errG, want, errW)
		}
		if errW != nil && errW.Error() != errG.Error() {
			t.Fatalf("schedule %v: error text %q vs %q", bad, errG, errW)
		}
	}
	broken := []AppTiming{{Name: "bad", ColdWCET: 1e-6, WarmWCET: 2e-6}}
	_, errW := idleFeasibleReference(broken, Schedule{1})
	_, errG := IdleFeasible(broken, Schedule{1})
	if errW == nil || errG == nil || errW.Error() != errG.Error() {
		t.Fatalf("invalid timing: %v vs %v", errG, errW)
	}
}

// TestDerivedClosedFormsMatchDense pins BurstGap/DerivedMaxPeriod/
// DerivedHyperPeriod against the materialized AppSchedule bit for bit.
func TestDerivedClosedFormsMatchDense(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 500; trial++ {
		n := 1 + r.Intn(5)
		apps := randomTimings(r, n)
		s := randomSchedule(r, n, 8)
		der, err := Derive(apps, s)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range der {
			gap := BurstGap(apps, s, i)
			if math.Float64bits(gap) != math.Float64bits(a.Gap) {
				t.Fatalf("trial %d app %d: gap %x, dense %x", trial, i, gap, a.Gap)
			}
			if got, want := DerivedMaxPeriod(apps[i], s[i], gap), a.MaxPeriod(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d app %d: max period %x, dense %x", trial, i, got, want)
			}
			if got, want := DerivedHyperPeriod(apps[i], s[i], gap), a.HyperPeriod(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d app %d: hyper period %x, dense %x", trial, i, got, want)
			}
		}
	}
}

// TestScheduleStringMatchesReference pins the strconv-based renderings
// (which double as cache keys) against the fmt-based originals.
func TestScheduleStringMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	refSchedule := func(s Schedule) string {
		parts := make([]string, len(s))
		for i, m := range s {
			parts[i] = fmt.Sprint(m)
		}
		return "(" + strings.Join(parts, ", ") + ")"
	}
	refWays := func(w Ways) string {
		if len(w) == 0 {
			return "shared"
		}
		parts := make([]string, len(w))
		for i, v := range w {
			parts[i] = fmt.Sprint(v)
		}
		return "[" + strings.Join(parts, " ") + "]"
	}
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		s := make(Schedule, n)
		w := make(Ways, n)
		for i := range s {
			s[i] = r.Intn(100) - 10 // String must render any int, not just valid bursts
			w[i] = r.Intn(20)
		}
		if got, want := s.String(), refSchedule(s); got != want {
			t.Fatalf("schedule %v: %q vs %q", []int(s), got, want)
		}
		if got, want := w.String(), refWays(w); got != want {
			t.Fatalf("ways %v: %q vs %q", []int(w), got, want)
		}
		j := JointSchedule{M: s, W: w}
		if got, want := j.Key(), s.String()+"|w"+w.String(); got != want {
			t.Fatalf("joint key %q vs %q", got, want)
		}
	}
	if got := (Ways{}).String(); got != "shared" {
		t.Fatalf("empty ways: %q", got)
	}
}

// TestAppendKeyMatchesKey: the byte rendering the evaluation caches look up
// (AppendKey) is exactly the Key string that names memory entries and
// store records — for schedules, shared joint points (keyed like their
// schedule) and partitioned joint points — and appends after any prefix
// without touching it.
func TestAppendKeyMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	check := func(what string, k interface {
		Key() string
		AppendKey([]byte) []byte
	}, want string) {
		t.Helper()
		if got := string(k.AppendKey(nil)); got != k.Key() || got != want {
			t.Fatalf("%s: AppendKey %q, Key %q, want %q", what, got, k.Key(), want)
		}
		if got := string(k.AppendKey([]byte("ns/"))); got != "ns/"+want {
			t.Fatalf("%s: AppendKey after a prefix = %q", what, got)
		}
	}
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(6)
		s := make(Schedule, n)
		w := make(Ways, n)
		for i := range s {
			s[i] = r.Intn(1000) - 10
			w[i] = r.Intn(20)
		}
		check("schedule", s, s.String())
		check("shared point", SharedPoint(s), s.String())
		check("partitioned point", JointSchedule{M: s, W: w}, s.String()+"|w"+w.String())
	}
	check("literal schedule", Schedule{3, 1, 12}, "(3, 1, 12)")
	check("literal partitioned point", JointSchedule{M: Schedule{2, 1}, W: Ways{3, 1}}, "(2, 1)|w[3 1]")
}

// TestIdleFeasibleAllocFree pins that the hot predicate does not allocate.
func TestIdleFeasibleAllocFree(t *testing.T) {
	apps := randomTimings(rand.New(rand.NewSource(4)), 3)
	s := Schedule{2, 3, 1}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := IdleFeasible(apps, s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("IdleFeasible allocates %g per call", allocs)
	}
}
