package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	core "prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
		want string
	}{
		{"plan with two benchmarks", []string{"-bench", "mcf,health", "-plan", "p.json"}, "-plan runs a single benchmark"},
		{"attrib with plan", []string{"-bench", "mcf", "-plan", "p.json", "-attrib"}, "-attrib applies to the strategy comparison"},
		{"bad scale", []string{"-bench", "mcf", "-scale", "huge"}, `unknown -scale "huge"`},
		{"zero jobs", []string{"-bench", "mcf", "-jobs", "0"}, "-jobs must be at least 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(c.args, &out)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run(%q) = %v, want error containing %q", c.args, err, c.want)
			}
			if out.Len() != 0 {
				t.Errorf("rejected run wrote output: %q", out.String())
			}
		})
	}
	if err := run(nil, &bytes.Buffer{}); !errors.Is(err, errUsage) {
		t.Errorf("run without -bench = %v, want usage error", err)
	}
}

// writePlan analyzes bench's profiling run as prefix-trace followed by
// prefix-analyze does (default variant and miner) and writes the plan
// JSON, returning its path.
func writePlan(t *testing.T, bench string) string {
	t.Helper()
	spec, err := workloads.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), machine.WithRecorder(rec))
	spec.Program.Run(m, spec.Profile)
	m.Finish()
	plan, _, err := core.BuildPlan(trace.Analyze(rec.Trace()), core.DefaultPlanConfig(bench, core.VariantHDSHot))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), bench+".plan.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunSavedPlan runs a saved plan against the baseline: the plan's
// variant row and a capture line with avoided mallocs must appear.
func TestRunSavedPlan(t *testing.T) {
	path := writePlan(t, "ft")
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-scale", "bench", "-plan", path}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("want header, baseline, plan and capture lines, got:\n%s", out.String())
	}
	for i, prefix := range []string{"strategy", "baseline", "prefix:hds+hot", "capture"} {
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	if strings.Contains(lines[3], "avoided=0 ") {
		t.Errorf("saved plan captured nothing: %q", lines[3])
	}
}
