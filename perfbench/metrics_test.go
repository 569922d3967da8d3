package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDeclared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	toMap := func(ds []declared) map[string]string {
		m := map[string]string{}
		for _, d := range ds {
			if _, dup := m[d.Name]; dup {
				t.Errorf("BENCHMARK.json declares %q twice", d.Name)
			}
			m[d.Name] = d.Unit
		}
		return m
	}
	return toMap(spec.EndToEnd), toMap(spec.PerLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkPrinted checks that a result's metrics are exactly the declared
// set, with the declared units and well-formed names.
func checkPrinted(t *testing.T, label string, got map[string]metricValue, want map[string]string) {
	t.Helper()
	for name, v := range got {
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q is not [A-Za-z0-9_.-]+", label, name)
		}
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s: printed metric %q is not declared in BENCHMARK.json", label, name)
		} else if unit != v.Unit {
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", label, name, v.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: declared metric %q is not printed", label, name)
		}
	}
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	e2e, layer := loadDeclared(t)
	checkPrinted(t, "end_to_end", newMetricSet(endToEnd).export(), e2e)
	checkPrinted(t, "per_layer", newMetricSet(perLayer).export(), layer)
}

// TestPrintedMetricsDeclared runs each kind of workload briefly on its
// cheapest benchmark, untraced and traced, and checks the printed result.
func TestPrintedMetricsDeclared(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	e2e, layer := loadDeclared(t)
	for _, w := range []workload{
		{Name: "suite-mcf", Benchmarks: []string{"mcf"}, BenchScale: true},
		{Name: "offline-mcf", Benchmarks: []string{"mcf"}, Offline: true},
	} {
		for _, traced := range []bool{false, true} {
			r := &runner{w: w, seconds: 0.01, traced: traced, workDir: t.TempDir(), recordTo: t.TempDir(), log: io.Discard}
			res, err := r.measure()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, r.problems)
			}
			want := e2e
			if traced {
				want = layer
			}
			checkPrinted(t, w.Name, res.Metrics, want)
		}
	}
}

// TestOutputMismatchFails runs mcf alone under plan-heavy's name, so its
// tables cannot match plan-heavy's expected file: the run must report
// failed jobs and not be correct.
func TestOutputMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline")
	}
	w := workload{Name: "plan-heavy", Benchmarks: []string{"mcf"}, BenchScale: true}
	r := &runner{w: w, seconds: 0.01, workDir: t.TempDir(), log: io.Discard}
	res, err := r.measure()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("mismatching tables passed the output check: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

func TestCompareRefusesUnlikeProvenance(t *testing.T) {
	w, err := lookupWorkload("plan-heavy")
	if err != nil {
		t.Fatal(err)
	}
	a := newProvenance(w, 1, 20, false)
	b := a
	b.GitSHA, b.SourceDigest = "other", "other"
	if d := likeForLike(a, b); len(d) != 0 {
		t.Errorf("code identity alone must not block a comparison: %v", d)
	}
	for _, mutate := range []func(p *provenance){
		func(p *provenance) { p.Seed = 2 },
		func(p *provenance) { p.GOMAXPROCS = 8 },
		func(p *provenance) { p.Shards = 4 },
		func(p *provenance) { p.GoVersion = "go0" },
	} {
		c := a
		mutate(&c)
		if len(likeForLike(a, c)) != 1 {
			t.Errorf("differing provenance not refused: %+v vs %+v", a, c)
		}
	}
}
