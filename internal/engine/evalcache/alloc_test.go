package evalcache

import (
	"testing"

	"repro/internal/race"
	"repro/internal/sched"
)

// TestGetHitAllocs: a memory hit renders its key into a stack buffer and
// probes the map without converting it to a string, so it allocates
// nothing — for plain schedules and for partitioned joint points alike.
func TestGetHitAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sc := NewCache(0, func(s sched.Schedule) (int, error) { return len(s), nil })
	s := sched.Schedule{3, 1, 2}
	if _, _, err := sc.Get(s); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { sc.Get(s) }); n != 0 {
		t.Errorf("schedule hit: %v allocs, want 0", n)
	}
	jc := NewCache(0, func(j sched.JointSchedule) (int, error) { return len(j.W), nil })
	j := sched.JointSchedule{M: sched.Schedule{3, 1, 2}, W: sched.Ways{2, 1, 1}}
	if _, _, err := jc.Get(j); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() { jc.Get(j) }); n != 0 {
		t.Errorf("joint hit: %v allocs, want 0", n)
	}
}
