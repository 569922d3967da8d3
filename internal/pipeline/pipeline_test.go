package pipeline

import (
	"testing"

	"prefix/internal/prefix"
	"prefix/internal/workloads"
)

// fastOpt is the cheapest full-pipeline configuration for unit tests.
func fastOpt() Options {
	opt := DefaultOptions()
	opt.UseBenchScale = true
	return opt
}

func TestCollectProfile(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := CollectProfile(spec, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if prof.Analysis.HeapAccesses == 0 || len(prof.Hot.Objects) == 0 {
		t.Error("profile is empty")
	}
	if len(prof.StreamsLCS) == 0 {
		t.Error("LCS mining found nothing on mcf")
	}
	if prof.Metrics.Cycles <= 0 {
		t.Error("profile metrics missing")
	}
}

func TestRunBenchmarkStructure(t *testing.T) {
	cmp, err := RunBenchmark("ft", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Benchmark != "ft" {
		t.Error("name lost")
	}
	if cmp.Baseline.Metrics.Cycles <= 0 || cmp.HDS.Metrics.Cycles <= 0 || cmp.HALO.Metrics.Cycles <= 0 {
		t.Error("missing strategy runs")
	}
	for _, v := range []prefix.Variant{prefix.VariantHot, prefix.VariantHDS, prefix.VariantHDSHot} {
		if _, ok := cmp.PreFix[v]; !ok {
			t.Errorf("missing variant %v", v)
		}
		if cmp.Plans[v] == nil || cmp.Summaries[v] == nil {
			t.Errorf("missing plan/summary for %v", v)
		}
	}
	if cmp.HDS.Pollution == nil || cmp.HALO.Pollution == nil {
		t.Error("baselines must report pollution")
	}
	if cmp.BestResult().Capture == nil {
		t.Error("PreFix runs must report capture")
	}
	// Best must be the variant with the fewest cycles.
	best := cmp.PreFix[cmp.Best].Metrics.Cycles
	for v, r := range cmp.PreFix {
		if r.Metrics.Cycles < best {
			t.Errorf("best=%v but %v is faster", cmp.Best, v)
		}
	}
}

func TestRunBenchmarkUnknown(t *testing.T) {
	if _, err := RunBenchmark("nope", fastOpt()); err == nil {
		t.Error("unknown benchmark should error")
	}
}

func TestCaptureLongRun(t *testing.T) {
	opt := fastOpt()
	opt.CaptureLongRun = true
	cmp, err := RunBenchmark("ft", opt)
	if err != nil {
		t.Fatal(err)
	}
	lr := cmp.LongRun
	if lr == nil {
		t.Fatal("long-run capture missing")
	}
	// The paper's claim (Table 5): the preallocated region serves a high
	// share of heap accesses and captures only hot objects.
	if lr.HeapAccessPct < 50 {
		t.Errorf("long-run HA%% = %.1f, want high", lr.HeapAccessPct)
	}
	if lr.HotObjects == 0 {
		t.Error("no hot objects captured")
	}
	spurious := lr.CapturedObjects - lr.HotObjects
	if float64(spurious) > 0.05*float64(lr.CapturedObjects) {
		t.Errorf("pollution in PreFix region: %d of %d captured objects not hot",
			spurious, lr.CapturedObjects)
	}
}

func TestTimeDeltaPct(t *testing.T) {
	base := RunResult{}
	base.Metrics.Cycles = 200
	r := RunResult{}
	r.Metrics.Cycles = 150
	if got := r.TimeDeltaPct(base); got != -25 {
		t.Errorf("delta = %v", got)
	}
	var zero RunResult
	if r.TimeDeltaPct(zero) != 0 {
		t.Error("zero baseline must not divide by zero")
	}
}

func TestRunMultithreaded(t *testing.T) {
	results, err := RunMultithreaded("mcf", []int{1, 2}, fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.BaselineCycles <= 0 || r.PreFixCycles <= 0 {
			t.Errorf("empty MT result: %+v", r)
		}
	}
	if results[1].BaselineCycles >= results[0].BaselineCycles {
		t.Error("two threads should have lower parallel time than one")
	}
}

func TestRunMultithreadedRejectsSingleThreaded(t *testing.T) {
	if _, err := RunMultithreaded("health", []int{1}, fastOpt()); err == nil {
		t.Error("single-threaded benchmark accepted")
	}
}

func TestTraceBaselineAndBest(t *testing.T) {
	base, best, variant, err := TraceBaselineAndBest("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Events) == 0 || len(best.Events) == 0 {
		t.Error("empty traces")
	}
	// The traced variant must be the one compareStrategies would crown.
	cmp, err := RunBenchmark("swissmap", fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if variant != cmp.Best {
		t.Errorf("traced variant = %v, but the comparison's best is %v", variant, cmp.Best)
	}
}
