package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by the nearest-rank
// rule: the smallest sample with at least q of the samples at or below it.
// It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// span is one traced call into a layer: Parent indexes the span that caused
// it (-1 for a root) and ID ties together the spans of one scenario or
// request. Start and End are offsets from the tracer's start.
type span struct {
	Name   string        `json:"name"`
	ID     string        `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per seam.
type tracer struct {
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]int64{}} }

// count adds one to a named counter kept beside the spans.
func (t *tracer) count(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name]++
}

func (t *tracer) counter(name string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// record adds a finished span and returns its index for use as a parent.
func (t *tracer) record(name, id string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// durations returns the durations in milliseconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTime returns span i's duration minus the summed durations of its
// children, in milliseconds (clamped at 0).
func (t *tracer) selfTime(i int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.spans[i].dur()
	for _, s := range t.spans {
		if s.Parent == i {
			d -= s.dur()
		}
	}
	return math.Max(0, ms(d))
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runtimeSample reads the allocation and GC CPU counters of runtime/metrics.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// statusMB reads a memory field (VmHWM, VmRSS) of a process from
// /proc/<pid>/status, in MB.
func statusMB(pid, field string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// rssSampler reads the benchmark process's resident set every
// rssInterval and keeps the peak of each window its caller closes, so a
// run reports the median per-batch peak rather than the single highest
// instant of the whole process life.
type rssSampler struct {
	mu    sync.Mutex
	cur   float64
	peaks []float64
	stop  chan struct{}
	done  chan struct{}
}

const rssInterval = 10 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	mb, err := statusMB("self", "VmRSS")
	if err != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = math.Max(s.cur, mb)
}

// cut closes the current window.
func (s *rssSampler) cut() {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peaks = append(s.peaks, s.cur)
	s.cur = 0
}

// close stops sampling and returns the peak of every closed window.
func (s *rssSampler) close() []float64 {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peaks
}

// timedLoop runs op until budget has elapsed (at least once) and returns
// the latency of every call in milliseconds. An op error stops the loop.
func timedLoop(budget time.Duration, op func() error) ([]float64, error) {
	var lat []float64
	start := time.Now()
	for len(lat) == 0 || time.Since(start) < budget {
		t := time.Now()
		if err := op(); err != nil {
			return lat, err
		}
		lat = append(lat, ms(time.Since(t)))
	}
	return lat, nil
}

// medianSetup runs setup reps times and returns the median duration in
// seconds; the value of the last run is kept by the caller's closure.
func medianSetup(reps int, setup func() error) (float64, error) {
	var d []float64
	for i := 0; i < reps; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		d = append(d, time.Since(t).Seconds())
	}
	return median(d), nil
}
