package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"prefix/internal/obs"
	"prefix/internal/prefix"
)

// TestObsNoopParity is the acceptance guarantee of the instrumentation:
// running with a registry and tracer attached must leave every reported
// number bit-identical to an uninstrumented run.
func TestObsNoopParity(t *testing.T) {
	opt := DefaultOptions()
	opt.UseBenchScale = true
	plain, err := RunBenchmark("mcf", opt)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	opt2 := DefaultOptions()
	opt2.UseBenchScale = true
	opt2.Metrics = obs.NewRegistry()
	opt2.Tracer = obs.NewTracer()
	instr, err := RunBenchmark("mcf", opt2)
	if err != nil {
		t.Fatalf("instrumented run: %v", err)
	}

	if !reflect.DeepEqual(plain.Baseline.Metrics, instr.Baseline.Metrics) {
		t.Errorf("baseline metrics differ:\n  plain: %v\n  instr: %v", plain.Baseline.Metrics, instr.Baseline.Metrics)
	}
	if !reflect.DeepEqual(plain.HDS.Metrics, instr.HDS.Metrics) ||
		!reflect.DeepEqual(plain.HALO.Metrics, instr.HALO.Metrics) {
		t.Error("prior-technique metrics differ between instrumented and plain runs")
	}
	for _, v := range opt.Variants {
		if plain.PreFix[v].Metrics.Cycles != instr.PreFix[v].Metrics.Cycles {
			t.Errorf("%v cycles differ: plain %v, instrumented %v",
				v, plain.PreFix[v].Metrics.Cycles, instr.PreFix[v].Metrics.Cycles)
		}
	}
	if plain.Best != instr.Best {
		t.Errorf("best variant differs: plain %v, instrumented %v", plain.Best, instr.Best)
	}

	// The registry must agree with the pipeline's own report.
	got := opt2.Metrics.Gauge("prefix_run_cycles", "benchmark", "mcf", "run", "baseline").Value()
	if got != plain.Baseline.Metrics.Cycles {
		t.Errorf("registry cycles = %v, want %v", got, plain.Baseline.Metrics.Cycles)
	}
	if n := opt2.Metrics.Counter("prefix_run_mallocs_total", "benchmark", "mcf", "run", "baseline").Value(); n != plain.Baseline.Metrics.Mallocs {
		t.Errorf("registry mallocs = %d, want %d", n, plain.Baseline.Metrics.Mallocs)
	}
}

// spanNames returns the names of a span's direct children.
func spanNames(s *obs.Span) []string {
	var names []string
	for _, c := range s.Children() {
		names = append(names, c.Name)
	}
	return names
}

// TestObsSpanTree asserts the expected Figure-8 phase tree for one small
// workload: profile (run/analyze/hotness/mining), one plan per variant
// with the planner's internal stages, one eval per strategy.
func TestObsSpanTree(t *testing.T) {
	opt := DefaultOptions()
	opt.UseBenchScale = true
	opt.Variants = []prefix.Variant{prefix.VariantHDSHot}
	opt.Metrics = obs.NewRegistry()
	opt.Tracer = obs.NewTracer()
	if _, err := RunBenchmark("health", opt); err != nil {
		t.Fatal(err)
	}

	roots := opt.Tracer.Roots()
	if len(roots) != 1 {
		t.Fatalf("roots = %d, want 1", len(roots))
	}
	root := roots[0]
	if root.Name != "benchmark health" {
		t.Errorf("root span = %q", root.Name)
	}
	wantTop := []string{
		"profile",
		"eval baseline",
		"eval hds",
		"eval halo",
		"plan prefix:hds+hot",
		"eval prefix:hds+hot",
	}
	if got := spanNames(root); !reflect.DeepEqual(got, wantTop) {
		t.Errorf("top-level spans = %v, want %v", got, wantTop)
	}

	children := root.Children()
	wantProfile := []string{"profile-run", "analyze", "hotness", "hds-mining"}
	if got := spanNames(children[0]); !reflect.DeepEqual(got, wantProfile) {
		t.Errorf("profile spans = %v, want %v", got, wantProfile)
	}
	// Planning starts at reconstitution: every variant plans from the
	// profile's streams, so mining happens once, under "profile".
	wantPlan := []string{"reconstitution", "context-inference", "recycling", "slot-assignment"}
	if got := spanNames(children[4]); !reflect.DeepEqual(got, wantPlan) {
		t.Errorf("plan spans = %v, want %v", got, wantPlan)
	}

	// Every span must be closed and folded into the stage histogram.
	var total int
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		total++
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	if n := opt.Metrics.Histogram("prefix_stage_seconds", nil).Count(); n != uint64(total) {
		t.Errorf("stage histogram count = %d, want %d (one per span)", n, total)
	}

	// The exporters must accept the real pipeline output.
	var prom, chrome strings.Builder
	if err := opt.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{
		"# TYPE prefix_run_cycles gauge",
		`prefix_run_mallocs_total{benchmark="health",run="baseline"}`,
		`prefix_capture_mallocs_avoided_total{benchmark="health",run="prefix:hds+hot"}`,
		"# TYPE prefix_stage_seconds histogram",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
	if err := opt.Tracer.WriteChromeTrace(&chrome); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !strings.Contains(chrome.String(), `"name": "reconstitution"`) {
		t.Error("chrome trace missing planner stage span")
	}
}
