package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/sched"
)

// serveMaxM bounds the case-study schedule box the design-serve clients
// query: m_i in 1..serveMaxM for each of the three apps.
const serveMaxM = 6

// serveZipf is the exponent of the request popularity law. Over an epoch
// of serveEpochLen requests it leaves about one request in seven cold
// (the first request for a schedule in that epoch), so the p99 latency
// lands on cold designs and the median on cache hits.
const serveZipf = 1.1

func serveEpochLen(size string) int {
	if size == "smoke" {
		return 60
	}
	return 1200
}

// boxSchedules lists the case-study schedule box in odometer order.
func boxSchedules() []sched.Schedule {
	var out []sched.Schedule
	forEachPoint(3, serveMaxM, func(m sched.Schedule) { out = append(out, m.Clone()) })
	return out
}

// serveSequence draws epoch e's request sequence from seed: schedules of
// the box ranked by a seeded permutation, requested with Zipf popularity.
func serveSequence(seed int64, e, n int) []sched.Schedule {
	rng := rand.New(rand.NewSource(seed<<20 + int64(e)))
	box := boxSchedules()
	perm := rng.Perm(len(box))
	z := rand.NewZipf(rng, serveZipf, 1, uint64(len(box)-1))
	seq := make([]sched.Schedule, n)
	for i := range seq {
		seq[i] = box[perm[z.Uint64()]]
	}
	return seq
}

// servedChild is one running cmd/served process.
type servedChild struct {
	cmd    *exec.Cmd
	url    string
	output chan error // closed once the child's stdout is drained
}

// startServed starts the served binary memory-only on an ephemeral
// loopback port and waits until /readyz answers 200.
func startServed(bin string, hc *http.Client) (*servedChild, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &servedChild{cmd: cmd, output: make(chan error)}
	addr := make(chan string, 1)
	go func() {
		defer close(c.output)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "served listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
		io.Copy(io.Discard, stdout)
	}()
	deadline := time.Now().Add(30 * time.Second)
	select {
	case a := <-addr:
		c.url = "http://" + a
	case <-c.output:
		c.stop()
		return nil, fmt.Errorf("served exited before listening")
	case <-time.After(time.Until(deadline)):
		c.stop()
		return nil, fmt.Errorf("served did not listen within 30s")
	}
	for {
		resp, err := hc.Get(c.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("served not ready within 30s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop asks the child to shut down, kills it if it has not exited within
// ten seconds, and waits for it.
func (c *servedChild) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-c.output
		exited <- c.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("served did not stop within 10s; killed")
	}
}

// statsz is the part of served's /statsz the traced run reads.
type statsz struct {
	Designs struct {
		MemoryHits int64 `json:"memory_hits"`
		Lookups    int64 `json:"lookups"`
	} `json:"designs"`
	Executor struct {
		Waited int64 `json:"waited"`
	} `json:"executor"`
	Resilience struct {
		Shed     int64 `json:"shed"`
		Timeouts int64 `json:"timeouts"`
	} `json:"resilience"`
}

func getJSON(hc *http.Client, url string, v any) error {
	resp, err := hc.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// designAnswer is one distinct response: what the digest covers.
type designAnswer struct {
	PallBits uint64 `json:"pall_bits"`
	Feasible bool   `json:"feasible"`
}

// answerDigest hashes a set of (schedule, pall bits, feasible) answers in
// schedule order.
func answerDigest(answers map[string]designAnswer) string {
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s|%x|%t\n", k, answers[k].PallBits, answers[k].Feasible)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// epochResult is what one closed-loop epoch against a fresh served reports.
type epochResult struct {
	lat    []float64 // every request's latency in ms, from send
	cold   []float64 // first requests of idle-feasible schedules (they run ctrl)
	warm   []float64 // repeat requests
	failed int
	wall   time.Duration
}

// runEpoch sends seq through nproc closed-loop clients: each client sends
// its next request only when the previous reply has been read.
func runEpoch(hc *http.Client, url string, seq []sched.Schedule, answers map[string]designAnswer, tr *tracer, epoch int) (*epochResult, error) {
	first := make([]bool, len(seq))
	seen := map[string]bool{}
	for i, s := range seq {
		if k := s.Key(); !seen[k] {
			seen[k], first[i] = true, true
		}
	}
	r := &epochResult{lat: make([]float64, len(seq))}
	failed := make([]bool, len(seq))
	idle := make([]bool, len(seq))
	got := make([]designAnswer, len(seq))
	errs := make([]error, len(seq))
	var next sync.Mutex
	i := 0
	take := func() int {
		next.Lock()
		defer next.Unlock()
		i++
		return i - 1
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := take(); k < len(seq); k = take() {
				q := make([]string, len(seq[k]))
				for j, m := range seq[k] {
					q[j] = strconv.Itoa(m)
				}
				t := time.Now()
				got[k], idle[k], failed[k], errs[k] = designRequest(hc, url+"/v1/design?schedule="+strings.Join(q, ","))
				end := time.Now()
				r.lat[k] = ms(end.Sub(t))
				tr.record("served.request", fmt.Sprintf("%d/%d", epoch, k), -1, t, end)
			}
		}()
	}
	wg.Wait()
	r.wall = time.Since(start)
	for k, s := range seq {
		if errs[k] != nil {
			return nil, errs[k]
		}
		if failed[k] {
			r.failed++
			continue
		}
		switch {
		case !first[k]:
			r.warm = append(r.warm, r.lat[k])
		case idle[k]:
			r.cold = append(r.cold, r.lat[k])
		}
		key := s.Key()
		if prev, ok := answers[key]; ok && prev != got[k] {
			return nil, fmt.Errorf("schedule %s answered %+v, earlier %+v", key, got[k], prev)
		}
		answers[key] = got[k]
	}
	return r, nil
}

// designRequest sends one GET /v1/design and returns the answer and
// whether the schedule is idle-feasible. A non-200 reply is a failed
// request, not an error; a transport or decoding failure is an error.
func designRequest(hc *http.Client, url string) (ans designAnswer, idle, failed bool, err error) {
	resp, err := hc.Get(url)
	if err != nil {
		return ans, false, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return ans, false, true, nil
	}
	var body struct {
		Results []struct {
			Pall         float64 `json:"pall"`
			Feasible     bool    `json:"feasible"`
			IdleFeasible bool    `json:"idle_feasible"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return ans, false, false, err
	}
	if len(body.Results) != 1 {
		return ans, false, false, fmt.Errorf("%s: %d results", url, len(body.Results))
	}
	res := body.Results[0]
	return designAnswer{PallBits: math.Float64bits(res.Pall), Feasible: res.Feasible}, res.IdleFeasible, false, nil
}

// runDesignServe measures the served binary. Each epoch starts a fresh
// memory-only served (the set-up), sends one seeded Zipf sequence of
// /v1/design requests through nproc closed-loop clients, reads the child's
// peak RSS, and stops it; epochs repeat until the time is up. A fresh
// child per epoch keeps the cold share of every epoch the same.
func runDesignServe(opt options) (*outcome, error) {
	o := newOutcome()
	tp := &http.Transport{MaxIdleConnsPerHost: runtime.NumCPU() + 1}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp, Timeout: time.Minute}
	n := serveEpochLen(opt.size)
	budget := opt.seconds
	if opt.trace {
		budget /= 2
	}
	answers := map[string]designAnswer{}
	var setups, rss []float64
	var stats statsz
	// phase runs epochs 0, 1, ... until budget is spent; the traced phase
	// reruns the untraced phase's epochs.
	phase := func(tr *tracer) (lat, cold, warm []float64, wall time.Duration, err error) {
		start := time.Now()
		for epoch := 0; epoch == 0 || time.Since(start) < budget; epoch++ {
			seq := serveSequence(opt.seed, epoch, n)
			t := time.Now()
			child, err := startServed(opt.served, hc)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			setups = append(setups, time.Since(t).Seconds())
			r, err := runEpoch(hc, child.url, seq, answers, tr, epoch)
			if err == nil && tr != nil {
				var s statsz
				if err = getJSON(hc, child.url+"/statsz", &s); err == nil {
					stats.Designs.MemoryHits += s.Designs.MemoryHits
					stats.Designs.Lookups += s.Designs.Lookups
					stats.Executor.Waited += s.Executor.Waited
					stats.Resilience.Shed += s.Resilience.Shed
					stats.Resilience.Timeouts += s.Resilience.Timeouts
				}
			}
			if err == nil {
				var peak float64
				if peak, err = statusMB(strconv.Itoa(child.cmd.Process.Pid), "VmHWM"); err == nil {
					rss = append(rss, peak)
				}
			}
			if serr := child.stop(); err == nil && serr != nil && !isSignalExit(serr) {
				err = serr
			}
			tp.CloseIdleConnections()
			if err != nil {
				return nil, nil, nil, 0, err
			}
			o.attempted += len(seq)
			o.failed += r.failed
			lat = append(lat, r.lat...)
			cold = append(cold, r.cold...)
			warm = append(warm, r.warm...)
			wall += r.wall
		}
		return lat, cold, warm, wall, nil
	}
	// check holds every distinct answer to the value pinned from
	// exp.DefaultFramework at the tiny budget.
	check := func() {
		want := map[string]designAnswer{}
		for k := range answers {
			p, ok := opt.pins.Serve[k]
			o.checkf(ok, "no pinned design for schedule %s", k)
			want[k] = p
		}
		o.checkf(answerDigest(answers) == answerDigest(want), "answers digest %s, pinned %s", answerDigest(answers), answerDigest(want))
	}
	lat, cold, _, wall, err := phase(nil)
	if err != nil {
		return nil, err
	}
	if !opt.trace {
		check()
		o.metrics["setup_s"] = median(setups)
		o.metrics["ops_per_s"] = float64(len(lat)) / wall.Seconds()
		o.metrics["latency_p50_ms"] = median(lat)
		o.metrics["latency_p99_ms"] = quantile(lat, 0.99)
		o.metrics["peak_rss_mb"] = median(rss)
		o.samples["latency"] = len(lat)
		o.samples["latency_cold"] = len(cold)
		o.samples["setup"] = len(setups)
		return o, nil
	}
	tr := newTracer()
	latT, coldT, warmT, wallT, err := phase(tr)
	if err != nil {
		return nil, err
	}
	check()
	o.metrics["served.cold_ms_p50"] = median(coldT)
	o.metrics["served.warm_ms_p50"] = median(warmT)
	o.samples["served.cold"] = len(coldT)
	o.samples["served.warm"] = len(warmT)
	o.metrics["served.designs_hit_ratio"] = ratio(float64(stats.Designs.MemoryHits), float64(stats.Designs.Lookups))
	o.metrics["served.executor_waited"] = float64(stats.Executor.Waited)
	o.metrics["served.shed"] = float64(stats.Resilience.Shed)
	o.metrics["served.timeouts"] = float64(stats.Resilience.Timeouts)
	o.metrics["failed_frac"] = ratio(float64(o.failed), float64(o.attempted))
	o.metrics["trace.overhead_frac"] = (float64(len(lat))/wall.Seconds())/(float64(len(latT))/wallT.Seconds()) - 1
	return o, tr.write(opt.traceOut)
}

// isSignalExit reports whether err is the exit of a child that died from
// the SIGTERM stop sent it rather than shutting down cleanly.
func isSignalExit(err error) bool {
	var ee *exec.ExitError
	return errors.As(err, &ee) && !ee.Exited()
}
