package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildServed builds cmd/served for the design-serve workload.
func buildServed(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "served")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/served")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build served: %v\n%s", err, out)
	}
	return bin
}

// smoke runs one workload at the smoke size and returns its exit code,
// its standard output and its standard error.
func smoke(t *testing.T, root, served, workload, trace string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-workload", workload, "-seed", "3", "-seconds", "1", "-trace", trace, "-size", "smoke",
		"-root", root, "-spec", "../BENCHMARK.json", "-served", served,
	}, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestSmokeWorkloads runs every workload at the smoke size, untraced and
// traced, checks included, and checks the result line carries every metric
// BENCHMARK.json names.
func TestSmokeWorkloads(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	served := buildServed(t, root)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				code, stdout, stderr := smoke(t, root, served, w.Name, trace)
				if code != 0 {
					t.Fatalf("exit %d\n%s\n%s", code, stdout, stderr)
				}
				lines := strings.Split(strings.TrimSpace(stdout), "\n")
				var r runResult
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				list := sp.EndToEnd
				if trace == "1" {
					list = sp.PerLayer
				}
				if len(r.Metrics) != len(list) {
					t.Fatalf("%d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(list))
				}
				for _, m := range list {
					v, ok := r.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v", m.Name, v)
					}
					if trace == "0" && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, v.Value)
					}
				}
				if trace == "1" && r.Metrics["trace.overhead_frac"].Value == 0 {
					t.Errorf("trace.overhead_frac not measured")
				}
			})
		}
	}
}

// TestMismatchFailsRun corrupts a pinned digest and expects the run to fail.
func TestMismatchFailsRun(t *testing.T) {
	saved := pinsJSON
	defer func() { pinsJSON = saved }()
	p, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	p.Timing["smoke"]["3"] = strings.Repeat("0", 64)
	if pinsJSON, err = json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := smoke(t, t.TempDir(), "", "timing-sweep", "0")
	if code == 0 || !strings.Contains(stderr, "output check failed") || !strings.Contains(stdout, `"correct":false`) {
		t.Fatalf("exit %d with a corrupted pin\n%s\n%s", code, stdout, stderr)
	}
}

// TestQuartilesMatchPython pins quartiles() to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
