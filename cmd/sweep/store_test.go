package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sweepOut runs the CLI and returns its stdout.
func sweepOut(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return sb.String()
}

// TestStoreColdWarmKillResumeGolden is the acceptance check of the
// persistence layer at the CLI level: a sweep with -store renders the
// golden table on a cold store, unchanged on a warm store, and unchanged
// after a simulated kill (only one shard completed) followed by -resume.
func TestStoreColdWarmKillResumeGolden(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-n", "6", "-seed", "42", "-exhaustive", "-workers", "2"}

	cold := sweepOut(t, append([]string{"-store", dir}, base...)...)

	golden := filepath.Join("testdata", "store_sweep.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s (regenerate by writing the cold output): %v", golden, err)
	}
	if cold != string(want) {
		t.Errorf("cold-store output diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, cold, want)
	}

	warm := sweepOut(t, append([]string{"-store", dir}, base...)...)
	if warm != cold {
		t.Errorf("warm-store output differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}

	resumed := sweepOut(t, append([]string{"-store", dir, "-resume"}, base...)...)
	if resumed != cold {
		t.Errorf("resumed output differs from cold:\n--- cold ---\n%s--- resumed ---\n%s", cold, resumed)
	}

	// Kill simulation: a fresh store receives only the first of two
	// shards (the "process" died before the rest ran), then a -resume run
	// finishes the remainder and must render the same table again.
	killDir := t.TempDir()
	partial := sweepOut(t, append([]string{"-store", killDir, "-shard", "0/2"}, base...)...)
	if !strings.Contains(partial, "pending in other shards") {
		t.Errorf("partial shard output missing pending note:\n%s", partial)
	}
	finished := sweepOut(t, append([]string{"-store", killDir, "-resume"}, base...)...)
	if finished != cold {
		t.Errorf("kill+resume output differs from cold:\n--- cold ---\n%s--- resumed ---\n%s", cold, finished)
	}
}

// TestStoreCSVStable pins the CSV rendering across cold and warm stores
// (hits/misses are memory-tier counters: they must not drift whether the
// warm run recomputes its timing points or, for design sweeps, loads them).
func TestStoreCSVStable(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-n", "3", "-seed", "9", "-csv", "-store", dir}
	cold := sweepOut(t, args...)
	warm := sweepOut(t, args...)
	if cold != warm {
		t.Errorf("CSV drifted between cold and warm store:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
}

func TestStoreFlagValidation(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-resume"}, &sb); err == nil {
		t.Error("-resume without -store accepted")
	}
	if err := run([]string{"-shard", "0/2"}, &sb); err == nil {
		t.Error("-shard without -store accepted (results would be unrecoverable)")
	}
	if err := run([]string{"-shard", "nonsense", "-store", t.TempDir()}, &sb); err == nil {
		t.Error("malformed -shard accepted")
	}
	if err := run([]string{"-shard", "3/2", "-store", t.TempDir()}, &sb); err == nil {
		t.Error("out-of-range -shard accepted")
	}
	if err := run([]string{"-platforms", "0"}, &sb); err == nil {
		t.Error("-platforms 0 accepted")
	}
}
