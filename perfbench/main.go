// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time from a seed, checks every output against pinned or
// independently recomputed values, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics of a traced rerun) by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// Usage (from the repository root, after perfbench/run.sh has built it):
//
//	perfbench -workload timing-sweep -seed 1 -seconds 20 -trace 0
//	perfbench -workload design-serve -seed 1 -seconds 20 -trace 1   # per-layer breakdown
//	perfbench -workload fabric-sweep -seed 1 -repeat 10 -sets 2     # spread and two-set check
//	perfbench -write-pins perfbench/pins.json                       # regenerate output pins
//
// The metric names, units and bounds come from BENCHMARK.json; README.md in
// this directory explains the workloads and what each metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// spec is the part of BENCHMARK.json the program reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// options are the settings every workload receives.
type options struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	size     string // "full" or "smoke"
	root     string // checkout root: build outputs and scratch files live below it
	served   string // path of the built cmd/served binary
	traceOut string // where the traced run writes its spans
	pins     *pins
}

// outcome is what a workload reports: metric values by name, the sample
// count behind every percentile, and the result of its output checks.
type outcome struct {
	metrics   map[string]float64
	samples   map[string]int
	attempted int
	failed    int
	mismatch  []string // output-check failures; any entry fails the run
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (o *outcome) checkf(ok bool, format string, args ...any) {
	if !ok {
		o.mismatch = append(o.mismatch, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(options) (*outcome, error){
	"timing-sweep": runTimingSweep,
	"design-sweep": runDesignSweep,
	"fabric-sweep": runFabricSweep,
	"design-serve": runDesignServe,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: timing-sweep | design-sweep | fabric-sweep | design-serve")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 = rerun the workload with spans and print per-layer metrics")
	size := fs.String("size", "full", "full | smoke (tiny inputs, for the benchmark's own tests)")
	root := fs.String("root", ".", "checkout root")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition (metric names, units, bounds)")
	served := fs.String("served", ".bench_build/bin/served", "built cmd/served binary")
	repeat := fs.Int("repeat", 0, "run the workload this many times on consecutive seeds and print quartiles")
	sets := fs.Int("sets", 1, "with -repeat: number of run sets whose medians are compared")
	writePins := fs.String("write-pins", "", "recompute every output pin and write them to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *writePins != "" {
		if err := writePinsFile(*writePins); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *repeat > 0 {
		if err := repeatRuns(sp, args, *workload, *seed, *repeat, *sets, *trace == 1, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || (*size != "full" && *size != "smoke") {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1, -size full|smoke\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	p, err := loadPins()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	opt := options{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		size: *size, root: *root, served: *served, pins: p,
		traceOut: filepath.Join(*root, ".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed)),
	}
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%d trace=%d size=%s\n", *workload, *seed, *seconds, *trace, *size)
	out, err := fn(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	list := sp.EndToEnd
	if opt.trace {
		list = sp.PerLayer
	}
	if err := report(stdout, *workload, opt, list, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if len(out.mismatch) > 0 {
		for _, m := range out.mismatch {
			fmt.Fprintf(stderr, "perfbench: %s: output check failed: %s\n", *workload, m)
		}
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the run record, every metric of list by name and unit, and
// the result line. An end-to-end metric the workload did not produce, or
// any metric it produced that list does not name, is an error: the
// program and BENCHMARK.json must agree. A per-layer metric of a layer the
// workload leaves idle reads 0.
func report(w io.Writer, workload string, opt options, list []metricSpec, out *outcome) error {
	named := map[string]bool{}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range list {
		v, ok := out.metrics[m.Name]
		if !ok && !opt.trace {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.metrics[m.Name] = v
		named[m.Name] = true
		metrics[m.Name] = value{v, m.Unit}
	}
	for name := range out.metrics {
		if !named[name] {
			return fmt.Errorf("metric %s is not listed in BENCHMARK.json", name)
		}
	}
	rec := runRecord(opt.root)
	rec["workload"] = workload
	rec["seed"] = opt.seed
	rec["size"] = opt.size
	rec["samples"] = out.samples
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "record %s\n", line)
	for _, m := range list {
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", m.Name, out.metrics[m.Name], m.Unit)
	}
	result, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(out.mismatch) == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", result)
	return err
}

// runRecord describes the machine and the code a result was measured on.
func runRecord(root string) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"git_rev":    gitRev(root),
		"source":     sourceDigest(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRev resolves HEAD from the checkout's .git directory without running
// git; a checkout exported without .git reports "none" (the source digest
// still identifies the code).
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if rev, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(rev))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/,
// so two results can be matched to identical program sources even where
// no git metadata exists.
func sourceDigest(root string) string {
	h := sha256.New()
	add := func(path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			return
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	add(filepath.Join(root, "go.mod"))
	for _, dir := range []string{"cmd", "internal"} {
		filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
				add(path)
			}
			return nil
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// runResult is the result line of one benchmark run.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// repeatRuns reruns this program on consecutive seeds and prints, per
// metric, the median and quartiles of each set, the spread (interquartile
// distance over the median) against a third of the metric's bound, and
// for a second set whether its median is worse than the first's by more
// than the bound.
func repeatRuns(sp *spec, args []string, workload string, seed int64, n, sets int, traced bool, w io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var pass []string // the caller's flags minus the repeat controls
	skip := map[string]bool{"repeat": true, "sets": true, "seed": true}
	for i := 0; i < len(args); i++ {
		name := strings.TrimLeft(args[i], "-")
		name, _, hasValue := strings.Cut(name, "=")
		if skip[name] {
			if !hasValue {
				i++
			}
			continue
		}
		pass = append(pass, args[i])
	}
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	var medians []map[string]float64
	for set := 0; set < sets; set++ {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, append(append([]string{}, pass...), "-seed", fmt.Sprint(s))...)
			cmd.Stderr = os.Stderr
			t := time.Now()
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("set %d seed %d: %w", set+1, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r runResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
				return fmt.Errorf("set %d seed %d: result line: %w", set+1, s, err)
			}
			if !r.Correct || r.Failed > 0 {
				return fmt.Errorf("set %d seed %d: correct=%v failed=%d", set+1, s, r.Correct, r.Failed)
			}
			fmt.Fprintf(w, "set %d seed %d: %.1fs", set+1, s, time.Since(t).Seconds())
			for _, m := range list {
				v := r.Metrics[m.Name].Value
				values[m.Name] = append(values[m.Name], v)
				if !traced {
					fmt.Fprintf(w, " %s=%.6g", m.Name, v)
				}
			}
			fmt.Fprintln(w)
		}
		med := map[string]float64{}
		fmt.Fprintf(w, "set %d: %s, %d runs from seed %d\n", set+1, workload, n, seed)
		fmt.Fprintf(w, "%-28s %12s %12s %12s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound/3")
		for _, m := range list {
			q := quartiles(values[m.Name])
			med[m.Name] = q[1]
			spread := ratio(q[2]-q[0], q[1])
			flag := ""
			if m.Bound > 0 && spread > m.Bound/3 && m.Name != "setup_s" {
				flag = "  SPREAD ABOVE BOUND/3"
			}
			fmt.Fprintf(w, "%-28s %12.6g %12.6g %12.6g %8.4f %8.4f%s\n", m.Name, q[0], q[1], q[2], spread, m.Bound/3, flag)
		}
		medians = append(medians, med)
	}
	for set := 1; set < len(medians); set++ {
		fmt.Fprintf(w, "set %d against set 1 (worse by more than the bound fails):\n", set+1)
		for _, m := range list {
			if m.Bound == 0 {
				continue
			}
			a, b := medians[0][m.Name], medians[set][m.Name]
			worse := ratio(b-a, a)
			if m.Better == "higher" {
				worse = ratio(a-b, a)
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "WORSE THAN BOUND"
			}
			fmt.Fprintf(w, "  %-26s %12.6g %12.6g worse by %+.4f (bound %.2f) %s\n", m.Name, a, b, worse, m.Bound, verdict)
		}
	}
	return nil
}

// quartiles returns the three cut points of xs by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), the rule the acceptance check uses.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return q
	}
	if ld == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	m := ld + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
