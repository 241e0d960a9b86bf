package ctrl_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/ctrl"
	"repro/internal/mat"
	"repro/internal/pso"
	"repro/internal/sched"
	"repro/internal/wcet"
)

// cutoffSchedules are the burst schedules the cutoff-contract checks design
// the case-study applications on.
var cutoffSchedules = []sched.Schedule{{1, 1, 1}, {2, 2, 2}, {2, 1, 4}, {3, 3, 5}}

// cutoffCase is one case-study application on one schedule, with its
// compiled design objective.
type cutoffCase struct {
	app   apps.App
	as    sched.AppSchedule
	modes []ctrl.Mode
	obj   pso.Objective
	dim   int
}

var (
	cutoffOnce  sync.Once
	cutoffCases []cutoffCase
	cutoffErr   error
)

// caseStudyCutoffCases compiles every (schedule, application) objective
// once per test binary.
func caseStudyCutoffCases(t testing.TB) []cutoffCase {
	t.Helper()
	cutoffOnce.Do(func() {
		study := apps.CaseStudy()
		timings, _, err := apps.Timings(study, wcet.PaperPlatform())
		if err != nil {
			cutoffErr = err
			return
		}
		for _, s := range cutoffSchedules {
			derived, err := sched.Derive(timings, s)
			if err != nil {
				cutoffErr = err
				return
			}
			for i, app := range study {
				obj, modes, dim, err := ctrl.NewDesignObjective(app.Plant, derived[i], app.Constraints())
				if err != nil {
					cutoffErr = err
					return
				}
				cutoffCases = append(cutoffCases, cutoffCase{app, derived[i], modes, obj, dim})
			}
		}
	})
	if cutoffErr != nil {
		t.Fatal(cutoffErr)
	}
	return cutoffCases
}

// checkCutoff asserts the pso.Objective contract at x for one cutoff: the
// exact value (the objective at +Inf) when it is below cutoff, bit for bit,
// and some value >= cutoff otherwise.
func checkCutoff(t *testing.T, obj pso.Objective, x []float64, exact, cutoff float64) {
	t.Helper()
	got := obj(x, cutoff)
	if exact < cutoff {
		if math.Float64bits(got) != math.Float64bits(exact) {
			t.Fatalf("x=%v cutoff %v: got %v (%x), exact value %v (%x) is below the cutoff",
				x, cutoff, got, math.Float64bits(got), exact, math.Float64bits(exact))
		}
		return
	}
	if !(got >= cutoff) {
		t.Fatalf("x=%v cutoff %v: got %v below the cutoff, exact value %v", x, cutoff, got, exact)
	}
}

// contractCutoffs are the cutoffs checked around an exact value v: just
// below, equal and just above it, a spread of fractions and multiples,
// the divergence score on either side, and +Inf.
func contractCutoffs(v float64) []float64 {
	return []float64{
		math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1)),
		0, 0.5 * v, 0.9 * v, 1.1 * v, 2 * v,
		1e5, math.Nextafter(1e5, math.Inf(1)), 3e5, math.Inf(1),
	}
}

// tile repeats a per-mode gain across every mode of a decision vector.
func tile(k []float64, dim int) []float64 {
	x := make([]float64, dim)
	for i := range x {
		x[i] = k[i%len(k)]
	}
	return x
}

// TestDesignObjectiveCutoffContract checks the cutoff contract of the
// design objective DesignHolistic searches, on every case-study
// application over several schedules: stabilizing LQR designs, the same
// gains scaled up until the input saturates, scaled down until the output
// does not settle within the horizon, and random gain vectors over several
// magnitudes (most of them unstable). The run also records that each of
// those classes actually occurred.
func TestDesignObjectiveCutoffContract(t *testing.T) {
	cases := caseStudyCutoffCases(t)
	r := rand.New(rand.NewSource(17))
	var settled, saturating, unsettled, unstable int
	for _, c := range cases {
		lqr, _ := ctrl.LQRSeedGains(c.modes)
		var xs [][]float64
		for _, seed := range lqr {
			for _, sc := range []float64{1, 4, 30, 0.05, 0.005} {
				x := make([]float64, len(seed))
				for i, v := range seed {
					x[i] = sc * v
				}
				xs = append(xs, x)
			}
		}
		for trial := 0; trial < 12; trial++ {
			x := make([]float64, c.dim)
			scale := math.Pow(10, float64(r.Intn(5))-2) // 0.01 .. 100
			for i := range x {
				x[i] = scale * r.NormFloat64()
			}
			xs = append(xs, x)
		}
		sim := ctrl.SimOptions{Horizon: 2.5 * c.app.SettleDeadline, InitialGap: c.as.Gap}
		for _, x := range xs {
			exact := c.obj(x, math.Inf(1))
			for _, cutoff := range contractCutoffs(exact) {
				checkCutoff(t, c.obj, x, exact, cutoff)
			}
			d, err := evaluateVector(c, x, sim)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case d.SpectralRadius >= 1:
				unstable++
			case !d.Settled:
				unsettled++
			default:
				settled++
			}
			if d.MaxInput > c.app.UMax {
				saturating++
			}
		}
	}
	t.Logf("checked %d settled, %d unsettled, %d unstable candidates (%d saturating)", settled, unsettled, unstable, saturating)
	if settled == 0 || saturating == 0 || unsettled == 0 || unstable == 0 {
		t.Fatalf("candidate classes not all covered: settled %d, saturating %d, unsettled %d, unstable %d",
			settled, saturating, unsettled, unstable)
	}
}

// evaluateVector runs the definitive design evaluation of decision vector x
// (holistic feedforward), to classify the candidate.
func evaluateVector(c cutoffCase, x []float64, sim ctrl.SimOptions) (*ctrl.Design, error) {
	l := c.app.Plant.Order()
	ks := make([]*mat.Matrix, len(c.modes))
	for j := range ks {
		ks[j] = mat.NewFromRows([][]float64{x[j*l : (j+1)*l]})
	}
	fs, err := ctrl.HolisticFeedforward(c.modes, ks)
	if err != nil {
		return &ctrl.Design{SpectralRadius: math.Inf(1)}, nil
	}
	return ctrl.EvaluateDesign(c.app.Plant, c.modes, ctrl.Gains{K: ks, F: fs}, c.app.Constraints(), sim)
}

// FuzzDesignObjectiveCutoff checks the cutoff contract of the design
// objective at fuzzed gains and cutoffs: case picks the application and
// schedule, k0..k3 are tiled over every mode's gain, and the cutoff is
// tried as given and relative to the exact value (frac * exact).
func FuzzDesignObjectiveCutoff(f *testing.F) {
	f.Add(uint8(0), 1.0, 0.1, -0.5, 0.02, 0.0, 0.5)
	f.Add(uint8(4), 20.0, 0.8, 3.0, -0.1, 1e5, 0.999)
	f.Add(uint8(7), 0.01, 0.001, 0.0, 0.0, 12.5, 1.0)
	f.Add(uint8(11), -3.0, 0.0, 50.0, 2.0, math.Inf(1), 1.5)
	f.Fuzz(func(t *testing.T, which uint8, k0, k1, k2, k3, cutoff, frac float64) {
		for _, v := range []float64{k0, k1, k2, k3, cutoff, frac} {
			if math.IsNaN(v) {
				t.Skip("NaN input")
			}
		}
		for _, k := range []float64{k0, k1, k2, k3} {
			if math.IsInf(k, 0) || math.Abs(k) > 1e6 {
				t.Skip("gain outside any search box")
			}
		}
		cases := caseStudyCutoffCases(t)
		c := cases[int(which)%len(cases)]
		x := tile([]float64{k0, k1, k2, k3}, c.dim)
		exact := c.obj(x, math.Inf(1))
		checkCutoff(t, c.obj, x, exact, cutoff)
		if rel := frac * exact; !math.IsNaN(rel) {
			checkCutoff(t, c.obj, x, exact, rel)
		}
		checkCutoff(t, c.obj, x, exact, exact)
		checkCutoff(t, c.obj, x, exact, math.Nextafter(exact, math.Inf(-1)))
	})
}
