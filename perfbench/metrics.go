package main

import "fmt"

// metricDef is one metric the benchmark reports. The table below is the
// benchmark's own declaration; metrics_test.go checks it against
// BENCHMARK.json, so a metric cannot be printed without being declared
// there with the same unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the untraced run's metrics (--trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"events_per_s", "1/s"},
	{"host_alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"prefix_cycles_ratio", "ratio"},
	{"ok_frac", "ratio"},
}

// jobBenchmarks is every benchmark some workload runs; each has a
// pipeline.job.<name>_s metric (0 on workloads that do not run it).
var jobBenchmarks = []string{"analyzer", "ft", "health", "leela", "mcf", "perl", "povray", "roms", "swissmap"}

// variantKeys maps a PreFix variant's String() to its metric-name form.
var variantKeys = map[string]string{
	"prefix:hot":     "hot",
	"prefix:hds":     "hds",
	"prefix:hds+hot": "hds-hot",
}

// evalKeys are the six evaluation runs, in compareStrategies order.
var evalKeys = []string{"baseline", "hds", "halo", "prefix-hot", "prefix-hds", "prefix-hds-hot"}

// layers are the repo's modules as the traced run groups its spans.
var layers = []string{"machine", "trace", "hotness", "hds", "prefix", "baselines"}

// obsStages are the program's own obs.Tracer span classes the traced
// run totals for the cross-check.
var obsStages = []string{"profile-run", "analyze", "hotness", "hds-mining", "plan", "eval"}

// perLayer are the traced run's metrics (--trace 1).
var perLayer = func() []metricDef {
	d := []metricDef{
		{"hds.collapse_s", "s"},
		{"hds.mine_lcs_s", "s"},
		{"hds.mine_sequitur_s", "s"},
		{"hds.refs", "count"},
		{"hds.streams_lcs", "count"},
		{"hds.streams_sequitur", "count"},
		{"hds.lcs_ns_per_ref", "ns"},
		{"prefix.plan_s", "s"},
		{"prefix.plan_alloc_mb", "MB"},
		{"machine.profile_run_s", "s"},
		{"machine.profile_run_events", "count"},
		{"machine.eval_s", "s"},
		{"machine.eval_events", "count"},
		{"machine.eval_ns_per_event", "ns"},
		{"machine.eval_allocs", "count"},
		{"trace.decode_s", "s"},
		{"trace.analyze_s", "s"},
		{"trace.analyze_ns_per_event", "ns"},
		{"trace.analyze_alloc_mb", "MB"},
		{"trace.events", "count"},
		{"trace.objects", "count"},
		{"trace.file_mb", "MB"},
		{"trace.spill_write_s", "s"},
		{"hotness.select_s", "s"},
		{"hotness.hot_objects", "count"},
		{"hotness.coverage_pct", "%"},
		{"baselines.plan_s", "s"},
		{"prefix.calls_avoided", "count"},
		{"prefix.spurious", "count"},
		{"prefix.region_kb", "KB"},
		{"baselines.hds_spurious", "count"},
		{"baselines.halo_spurious", "count"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_pause_s", "s"},
		{"pipeline.other_s", "s"},
		{"bench.tracing_overhead_pct", "%"},
	}
	for _, v := range []string{"hot", "hds", "hds-hot"} {
		d = append(d, metricDef{"prefix.plan." + v + "_s", "s"})
	}
	for _, e := range evalKeys {
		d = append(d, metricDef{"machine.eval." + e + "_s", "s"})
	}
	for _, c := range []string{"l1", "llc", "tlb"} {
		for _, run := range []string{"baseline", "best"} {
			d = append(d, metricDef{"cachesim." + c + "_miss_pct." + run, "%"})
		}
	}
	for _, b := range jobBenchmarks {
		d = append(d, metricDef{"pipeline.job." + b + "_s", "s"})
	}
	for _, l := range layers {
		d = append(d, metricDef{"layer." + l + "_s", "s"})
	}
	for _, s := range obsStages {
		d = append(d, metricDef{"obs." + s + "_s", "s"})
	}
	return d
}()

// metricSet holds one result's values. It starts with every declared
// metric of its mode at 0 and refuses undeclared names, so a result
// always carries exactly the declared set.
type metricSet struct {
	defs   map[string]string
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: make(map[string]string, len(defs)), values: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.defs[d.Name] = d.Unit
		m.values[d.Name] = 0
	}
	return m
}

// set records a value; an undeclared name is a bug in the benchmark.
func (m *metricSet) set(name string, v float64) {
	if _, ok := m.defs[name]; !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not declared", name))
	}
	m.values[name] = v
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) export() map[string]metricValue {
	out := make(map[string]metricValue, len(m.values))
	for name, v := range m.values {
		out[name] = metricValue{Value: v, Unit: m.defs[name]}
	}
	return out
}

// names returns the set's metric names, sorted.
func (m *metricSet) names() []string { return sortedKeys(m.values) }
