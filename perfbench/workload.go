package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/pipeline"
	"prefix/internal/prefix"
	"prefix/internal/report"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// workload is one named set of jobs. Suite workloads run their
// benchmarks through pipeline.RunSuite; the offline workload replays
// the prefix-trace -stream / prefix-analyze -stream flow on spill files
// it records during set-up.
type workload struct {
	Name       string
	Benchmarks []string
	// BenchScale selects spec.Bench for the suite's evaluation runs
	// (spec.Long otherwise).
	BenchScale bool
	// Offline marks the trace → analyze → plan workload.
	Offline bool
}

var workloadDefs = []workload{
	{Name: "plan-heavy", Benchmarks: []string{"health", "ft", "analyzer", "mcf"}, BenchScale: true},
	{Name: "sim-heavy", Benchmarks: []string{"perl", "roms", "swissmap", "povray"}},
	{Name: "offline-analyze", Benchmarks: []string{"health", "leela", "povray"}, Offline: true},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// suiteOptions is the pipeline configuration every suite pass uses:
// serial analysis, in-memory profiles, no observability attached.
func (w workload) suiteOptions() pipeline.Options {
	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = w.BenchScale
	opt.Shards = 1
	return opt
}

// recordConfig is the offline workload's recorded run: the benchmark's
// long-scale input with the workload seed mixed into its PRNG seed.
// Seed 0 records exactly what prefix-trace -scale long writes.
func recordConfig(spec workloads.Spec, seed uint64) workloads.Config {
	cfg := spec.Long
	cfg.Seed += seed
	return cfg
}

// spillPath is where set-up records a benchmark's trace.
func spillPath(workDir, bench string) string {
	return filepath.Join(workDir, "traces", bench+".pfxt")
}

// recordSpill records one benchmark's long-scale run through the
// bounded-memory spill recorder into path, as prefix-trace -stream does.
func recordSpill(bench, path string, seed uint64) error {
	spec, err := workloads.Get(bench)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rec, err := trace.NewSpillRecorder(f, trace.DefaultChunkEvents)
	if err != nil {
		f.Close()
		return err
	}
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), machine.WithRecorder(rec))
	spec.Program.Run(m, recordConfig(spec, seed))
	m.Finish()
	if err := rec.Close(); err != nil {
		f.Close()
		return fmt.Errorf("recording %s: %w", bench, err)
	}
	return f.Close()
}

// streamAnalyze is prefix-analyze -stream -shards 1: decode the spill
// file incrementally and analyze it.
func streamAnalyze(path string) (*trace.Analysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sr, err := trace.NewStreamReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return trace.AnalyzeSource(sr)
}

// offlinePlanConfig is prefix-analyze's default configuration (hds+hot,
// LCS miner).
func offlinePlanConfig(bench string) prefix.PlanConfig {
	return prefix.DefaultPlanConfig(bench, prefix.VariantHDSHot)
}

// offlineJob is the timed part of one offline job: analyze the stream,
// build the plan and render it as prefix-analyze writes it.
func offlineJob(bench, path string) (a *trace.Analysis, plan *prefix.Plan, js []byte, err error) {
	a, err = streamAnalyze(path)
	if err != nil {
		return nil, nil, nil, err
	}
	plan, _, err = prefix.BuildPlan(a, offlinePlanConfig(bench))
	if err != nil {
		return nil, nil, nil, err
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		return nil, nil, nil, err
	}
	return a, plan, buf.Bytes(), nil
}

// renderTables renders the suite's Table 3, 4 and 6 rows, the bytes the
// output check compares.
func renderTables(cmps []*pipeline.Comparison) ([]byte, error) {
	var buf bytes.Buffer
	for _, t := range []func(*bytes.Buffer, []*pipeline.Comparison) error{
		func(b *bytes.Buffer, c []*pipeline.Comparison) error { return report.Table3(b, c) },
		func(b *bytes.Buffer, c []*pipeline.Comparison) error { return report.Table4(b, c) },
		func(b *bytes.Buffer, c []*pipeline.Comparison) error { return report.Table6(b, c) },
	} {
		if err := t(&buf, cmps); err != nil {
			return nil, err
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// validatePlans checks every plan of a comparison.
func validatePlans(c *pipeline.Comparison) error {
	for v, p := range c.Plans {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("%s %v plan: %w", c.Benchmark, v, err)
		}
	}
	return nil
}

// cyclesRatio is the geometric mean of best/baseline simulated cycles.
func cyclesRatio(pairs [][2]float64) float64 {
	if len(pairs) == 0 {
		return 0
	}
	var logSum float64
	for _, p := range pairs {
		logSum += math.Log(p[1] / p[0])
	}
	return math.Exp(logSum / float64(len(pairs)))
}

// suiteRatio is prefix_cycles_ratio over a suite pass.
func suiteRatio(cmps []*pipeline.Comparison) float64 {
	var pairs [][2]float64
	for _, c := range cmps {
		pairs = append(pairs, [2]float64{c.Baseline.Metrics.Cycles, c.BestResult().Metrics.Cycles})
	}
	return cyclesRatio(pairs)
}

// captureAudit wraps a PreFix allocator and checks each object it
// places in the preallocated region against the profile's hot set. An
// object counts as hot when its (site, instance) pair was selected hot
// in the profile, or its site's every profiled instance was hot — the
// "all ids" sites whose counters place every instance by design.
type captureAudit struct {
	*prefix.Allocator
	region   mem.Range
	hot      baselines.HotSet
	allSites map[mem.SiteID]bool
	seen     map[mem.SiteID]mem.Instance
	captured uint64
	spurious uint64
}

func newCaptureAudit(plan *prefix.Plan, prof *pipeline.Profile, cost cachesim.CostModel) *captureAudit {
	all := make(map[mem.SiteID]bool)
	for site, insts := range prof.Hot.PerSite {
		if uint64(len(insts)) == prof.Analysis.SiteAllocs[site] {
			all[site] = true
		}
	}
	return &captureAudit{
		Allocator: prefix.NewAllocator(plan, cost),
		region:    plan.Region(),
		hot:       baselines.HotSetOf(prof.Hot),
		allSites:  all,
		seen:      make(map[mem.SiteID]mem.Instance),
	}
}

// Malloc forwards to the PreFix allocator and audits the placement.
func (c *captureAudit) Malloc(site mem.SiteID, stack mem.StackSig, size uint64) (mem.Addr, uint64) {
	c.seen[site]++
	addr, instr := c.Allocator.Malloc(site, stack, size)
	if c.region.Contains(addr) {
		c.captured++
		if !c.allSites[site] && !c.hot.Has(site, c.seen[site]) {
			c.spurious++
		}
	}
	return addr, instr
}

// evalConfig is the input a suite workload's evaluation runs use.
func (w workload) evalConfig(spec workloads.Spec) workloads.Config {
	if w.BenchScale {
		return spec.Bench
	}
	return spec.Long
}

// baselineRun runs a benchmark input under the baseline allocator.
func baselineRun(bench string, cfg workloads.Config) (machine.Metrics, error) {
	spec, err := workloads.Get(bench)
	if err != nil {
		return machine.Metrics{}, err
	}
	opt := pipeline.DefaultOptions()
	m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache)
	spec.Program.Run(m, cfg)
	return m.Finish(), nil
}

// auditRun runs a benchmark input under the audited PreFix allocator
// and returns its simulated metrics with the audit counts. The metrics
// must equal the unaudited run's: the wrapper only observes.
func auditRun(bench string, cfg workloads.Config, plan *prefix.Plan, prof *pipeline.Profile) (machine.Metrics, *captureAudit, error) {
	spec, err := workloads.Get(bench)
	if err != nil {
		return machine.Metrics{}, nil, err
	}
	opt := pipeline.DefaultOptions()
	audit := newCaptureAudit(plan, prof, opt.Cache.Cost)
	m := machine.New(audit, opt.Cache)
	spec.Program.Run(m, cfg)
	return m.Finish(), audit, nil
}

// checkSuiteCaptures audits the best PreFix plan of every comparison:
// the audited run must reproduce the reported metrics and place no
// object outside the profile's hot set.
func checkSuiteCaptures(w workload, cmps []*pipeline.Comparison) (spurious uint64, failed []string) {
	for _, c := range cmps {
		var m machine.Metrics
		var audit *captureAudit
		spec, err := workloads.Get(c.Benchmark)
		if err == nil {
			m, audit, err = auditRun(c.Benchmark, w.evalConfig(spec), c.Plans[c.Best], c.Profile)
		}
		switch {
		case err != nil:
			failed = append(failed, fmt.Sprintf("%s: %v", c.Benchmark, err))
		case !reflect.DeepEqual(m, c.BestResult().Metrics):
			failed = append(failed, fmt.Sprintf("%s: audited run metrics differ from the suite's", c.Benchmark))
		case audit.spurious != 0:
			failed = append(failed, fmt.Sprintf("%s: %d of %d PreFix captures are not hot", c.Benchmark, audit.spurious, audit.captured))
		}
		if audit != nil {
			spurious += audit.spurious
		}
	}
	return spurious, failed
}

// since is seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
