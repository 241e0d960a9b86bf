package pso

import (
	"math"
	"slices"
	"sync"
	"testing"
)

// shiftedSphere is sum_j (x_j - j - 0.5)^2. Its partial sums never
// decrease, so a partial sum that reaches the cutoff proves the full value
// is not below it.
func shiftedSphere(x []float64, cutoff float64, honour bool) float64 {
	s := 0.0
	for j, v := range x {
		d := v - float64(j) - 0.5
		s += d * d
		if honour && s >= cutoff {
			return cutoff // the least value the contract allows
		}
	}
	return s
}

// cutoffRecorder wraps shiftedSphere and records the cutoff and result of
// every call.
type cutoffRecorder struct {
	mu      sync.Mutex
	cutoffs []float64
	values  []float64
}

func (r *cutoffRecorder) objective(honour bool) Objective {
	return func(x []float64, cutoff float64) float64 {
		v := shiftedSphere(x, cutoff, honour)
		r.mu.Lock()
		r.cutoffs = append(r.cutoffs, cutoff)
		r.values = append(r.values, v)
		r.mu.Unlock()
		return v
	}
}

// TestMinimizeCutoffContract pins the cutoff-bounded objective contract of
// Minimize: an objective that stops at the cutoff and one that ignores it
// give a bit-identical Result at every worker count, and the cutoffs are
// +Inf in the initial round and each particle's personal best after it.
func TestMinimizeCutoffContract(t *testing.T) {
	const n, dim = 10, 4
	lower, upper := bounds(dim, -6, 6)
	opts := Options{Seed: 11, Particles: n, Iterations: 40}

	// Serial reference with the cutoff ignored: call k evaluates particle
	// k%n, and its cutoff must be the least value that particle has
	// produced so far.
	var ref cutoffRecorder
	p := Problem{Dim: dim, Lower: lower, Upper: upper}
	p.Objective = ref.objective(false)
	serial := opts
	serial.Workers = 1
	want, err := Minimize(p, serial)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.cutoffs) != want.Evaluations {
		t.Fatalf("recorded %d cutoffs for %d evaluations", len(ref.cutoffs), want.Evaluations)
	}
	pbest := make([]float64, n)
	for i := range pbest {
		pbest[i] = math.Inf(1)
	}
	for k, c := range ref.cutoffs {
		i := k % n
		if math.Float64bits(c) != math.Float64bits(pbest[i]) {
			t.Fatalf("call %d (round %d, particle %d): cutoff %v, want personal best %v", k, k/n, i, c, pbest[i])
		}
		if v := ref.values[k]; v < pbest[i] {
			pbest[i] = v
		}
	}
	wantCutoffs := slices.Clone(ref.cutoffs)
	slices.Sort(wantCutoffs)

	for _, honour := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4} {
			var rec cutoffRecorder
			p.Objective = rec.objective(honour)
			p.NewObjective = func() Objective { return rec.objective(honour) }
			o := opts
			o.Workers = workers
			got, err := Minimize(p, o)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.Value) != math.Float64bits(want.Value) ||
				got.Iterations != want.Iterations || got.Evaluations != want.Evaluations {
				t.Fatalf("honour=%v workers=%d: result %+v, serial reference %+v", honour, workers, got, want)
			}
			for j := range want.X {
				if math.Float64bits(got.X[j]) != math.Float64bits(want.X[j]) {
					t.Fatalf("honour=%v workers=%d: X[%d] = %x, reference %x", honour, workers, j, got.X[j], want.X[j])
				}
			}
			// Parallel workers claim particles in any order, so compare the
			// cutoffs as a multiset.
			gotCutoffs := slices.Clone(rec.cutoffs)
			slices.Sort(gotCutoffs)
			if !slices.Equal(gotCutoffs, wantCutoffs) {
				t.Fatalf("honour=%v workers=%d: cutoff multiset differs from the serial run", honour, workers)
			}
		}
	}
}
