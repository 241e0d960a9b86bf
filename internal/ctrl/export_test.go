package ctrl

import (
	"repro/internal/lti"
	"repro/internal/pso"
	"repro/internal/sched"
)

// NewDesignObjective compiles the per-mode design objective that
// DesignHolistic searches for one application schedule (default options),
// returning it with its decision-vector dimension. It lets the external
// test package, which can import the case-study applications, check the
// cutoff contract on the real search objective.
func NewDesignObjective(plant *lti.System, as sched.AppSchedule, cons Constraints) (pso.Objective, []Mode, int, error) {
	cons = cons.withDefaults()
	opt := DesignOptions{}.withDefaults(cons)
	modes, err := ModesFromSchedule(plant, as)
	if err != nil {
		return nil, nil, 0, err
	}
	opt.Sim.InitialGap = as.Gap
	plan, err := CompileSimPlan(plant, modes, opt.Sim)
	if err != nil {
		return nil, nil, 0, err
	}
	return newDesignEval(plan, modes, cons, false).objective, modes, len(modes) * plant.Order(), nil
}
