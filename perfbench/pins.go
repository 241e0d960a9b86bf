package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"

	"repro/internal/engine"
	"repro/internal/exp"
)

// pins are the expected outputs the workloads check against, regenerated
// with -write-pins from the code they pin.
type pins struct {
	// Timing is the timing-sweep batch digest by size and seed.
	Timing map[string]map[string]string `json:"timing-sweep"`
	// Design is the report line of every case-study scenario (optimum
	// schedule, P_all bits, evaluated count) by size and scenario name.
	Design map[string]map[string]string `json:"design-sweep"`
	// Serve is the tiny-budget design answer of every schedule in the
	// design-serve box, by schedule key.
	Serve map[string]designAnswer `json:"design-serve"`
}

// pinnedSeeds is how many timing-sweep seeds (0, 1, ...) carry a pinned
// digest; other seeds are checked against a serial sweep instead.
const pinnedSeeds = 64

//go:embed pins.json
var pinsJSON []byte

func loadPins() (*pins, error) {
	var p pins
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return &p, nil
}

// writePinsFile recomputes every pin serially from the current code and
// writes them to path.
func writePinsFile(path string) error {
	p := pins{
		Timing: map[string]map[string]string{},
		Design: map[string]map[string]string{},
		Serve:  map[string]designAnswer{},
	}
	for _, size := range []string{"full", "smoke"} {
		p.Timing[size] = map[string]string{}
		for seed := int64(0); seed < pinnedSeeds; seed++ {
			res, err := engine.Sweep(engine.Config{Workers: runtime.NumCPU()}, timingGrid(seed, timingGridSize(size)))
			if err != nil {
				return fmt.Errorf("timing-sweep seed %d: %w", seed, err)
			}
			p.Timing[size][strconv.FormatInt(seed, 10)] = digest(render(res))
		}
		res, err := engine.Sweep(engine.Config{Workers: runtime.NumCPU()}, designGrid(size))
		if err != nil {
			return fmt.Errorf("design-sweep: %w", err)
		}
		p.Design[size] = map[string]string{}
		for _, r := range res {
			p.Design[size][r.Name] = resultKey(r)
		}
	}
	fw, err := exp.DefaultFramework(exp.TinyBudget())
	if err != nil {
		return err
	}
	for _, s := range boxSchedules() {
		ev, err := fw.EvaluateSchedule(s)
		if err != nil {
			return fmt.Errorf("design-serve %s: %w", s.Key(), err)
		}
		p.Serve[s.Key()] = designAnswer{PallBits: math.Float64bits(ev.Pall), Feasible: ev.Feasible}
	}
	data, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
