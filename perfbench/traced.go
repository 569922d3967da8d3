package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"time"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/machine"
	"prefix/internal/mem"
	"prefix/internal/obs"
	"prefix/internal/pipeline"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public entry point of that layer. Spans of one job share Job.
type span struct {
	Name   string  `json:"name"`
	Layer  string  `json:"layer"`
	Job    int     `json:"job"`
	Parent int     `json:"parent"` // index into the run's spans; -1 for a root
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// AllocBytes and Mallocs are the Go heap's TotalAlloc and Mallocs
	// deltas over the span.
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps a run's spans in memory; they are written out when the
// run ends.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	job   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs f inside a span nested under the innermost open span.
func (t *tracer) do(name, layer string, f func()) {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Job: t.job, Parent: parent,
		Start: time.Since(t.epoch).Seconds(), AllocBytes: ms.TotalAlloc, Mallocs: ms.Mallocs})
	t.stack = append(t.stack, i)
	f()
	t.stack = t.stack[:len(t.stack)-1]
	runtime.ReadMemStats(&ms)
	s := &t.spans[i]
	s.End = time.Since(t.epoch).Seconds()
	s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	s.Mallocs = ms.Mallocs - s.Mallocs
}

// write emits the spans as JSON lines.
func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's duration minus its children's.
func (t *tracer) selfTimes(from int) []float64 {
	self := make([]float64, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		self[i] += t.spans[i].seconds()
		if p := t.spans[i].Parent; p >= from {
			self[p] -= t.spans[i].seconds()
		}
	}
	return self
}

// simResult is what one evaluation run reports, compared field by field
// with the untraced pipeline.RunSuite result.
type simResult struct {
	Strategy  string
	Metrics   machine.Metrics
	PeakBytes uint64
	Pollution *baselines.Pollution
	Capture   *prefix.Capture
}

func simOf(r pipeline.RunResult) simResult {
	return simResult{r.Strategy, r.Metrics, r.PeakBytes, r.Pollution, r.Capture}
}

// tracedJob is one benchmark's result from the decomposed sequence.
type tracedJob struct {
	Runs     []simResult // in evalKeys order
	Best     prefix.Variant
	Profile  *pipeline.Profile
	ProfEvts uint64
	Refs     int
	Streams  [2]int
}

// suiteJob performs pipeline.RunBenchmark's sequence for one benchmark,
// calling each layer's public entry point inside its own span.
func suiteJob(t *tracer, w workload, bench string) (*tracedJob, error) {
	spec, err := workloads.Get(bench)
	if err != nil {
		return nil, err
	}
	opt := w.suiteOptions()
	cfg := opt.Plan
	cfg.Benchmark = bench
	cost := opt.Cache.Cost
	evalCfg := w.evalConfig(spec)
	job := &tracedJob{}
	var jobErr error
	t.do("pipeline.job."+bench, "pipeline", func() {
		var (
			tr  *trace.Trace
			a   *trace.Analysis
			hot *hotness.Set
		)
		t.do("machine.profile_run", "machine", func() {
			rec := trace.NewRecorder()
			m := machine.New(baselines.NewBaseline(cost), opt.Cache, machine.WithRecorder(rec))
			spec.Program.Run(m, spec.Profile)
			m.Finish()
			tr = rec.Trace()
			job.ProfEvts = rec.Stats().Events
		})
		t.do("trace.analyze", "trace", func() { a = trace.Analyze(tr) })
		tr = nil
		t.do("hotness.select", "hotness", func() { hot = prefix.SelectHot(a, cfg) })
		var refs []mem.ObjectID
		var lcs, seq []hds.Stream
		t.do("hds.collapse", "hds", func() { refs = hds.CollapseRefs(a.Refs, hot.IDs) })
		t.do("hds.mine_lcs", "hds", func() { lcs = hds.MineLCS(refs, cfg.HDS) })
		t.do("hds.mine_sequitur", "hds", func() { seq = hds.MineSequitur(refs, cfg.HDS) })
		t.do("hds.weigh", "hds", func() {
			acc := make(map[mem.ObjectID]uint64, len(hot.Objects))
			for _, o := range hot.Objects {
				acc[o.ID] = o.Accesses
			}
			lcs = hds.WeighByAccesses(lcs, acc)
			seq = hds.WeighByAccesses(seq, acc)
		})
		job.Refs, job.Streams = len(refs), [2]int{len(lcs), len(seq)}
		job.Profile = &pipeline.Profile{Analysis: a, Hot: hot, StreamsLCS: lcs, StreamsSequitur: seq}

		var hotSet baselines.HotSet
		var hdsSites []mem.SiteID
		var haloCfg baselines.HALOConfig
		t.do("baselines.plan", "baselines", func() {
			hotSet = baselines.HotSetOf(hot)
			hdsSites = baselines.HDSSites(a, seq)
			haloCfg = baselines.PlanHALO(a, hot, lcs)
		})
		eval := func(key string, alloc machine.Allocator) {
			t.do("machine.eval."+key, "machine", func() {
				m := machine.New(alloc, opt.Cache)
				spec.Program.Run(m, evalCfg)
				job.Runs = append(job.Runs, simulated(alloc, m.Finish()))
			})
		}
		eval("baseline", baselines.NewBaseline(cost))
		eval("hds", baselines.NewHDS(hdsSites, hotSet, cost))
		eval("halo", baselines.NewHALO(haloCfg, hotSet, cost))
		for _, v := range opt.Variants {
			vk := variantKeys[v.String()]
			pc := cfg
			pc.Variant = v
			var plan *prefix.Plan
			var err error
			t.do("prefix.plan."+vk, "prefix", func() { plan, _, err = prefix.BuildPlanFromHot(a, hot, pc) })
			if err != nil {
				jobErr = fmt.Errorf("%s %v: %w", bench, v, err)
				return
			}
			eval("prefix-"+vk, prefix.NewAllocator(plan, cost))
		}
		// Best variant: lowest cycles, first in variant order on ties.
		best := 3
		for i := 4; i < len(job.Runs); i++ {
			if job.Runs[i].Metrics.Cycles < job.Runs[best].Metrics.Cycles {
				best = i
			}
		}
		job.Best = opt.Variants[best-3]
	})
	return job, jobErr
}

// simulated collects the reported fields of one evaluation run the same
// way pipeline's runOne does.
func simulated(alloc machine.Allocator, m machine.Metrics) simResult {
	r := simResult{Strategy: alloc.Name(), Metrics: m}
	switch a := alloc.(type) {
	case *baselines.Baseline:
		r.PeakBytes = a.PeakBytes()
	case *baselines.HDSAlloc:
		r.PeakBytes = a.PeakBytes()
		p := a.Pollution()
		r.Pollution = &p
	case *baselines.HALO:
		r.PeakBytes = a.PeakBytes()
		p := a.Pollution()
		r.Pollution = &p
	case *prefix.Allocator:
		r.PeakBytes = a.PeakBytes()
		c := a.Capture()
		r.Capture = &c
	}
	return r
}

// sameAsSuite reports where a traced job's simulated results differ from
// the untraced suite's comparison ("" when identical).
func sameAsSuite(job *tracedJob, c *pipeline.Comparison) string {
	want := []simResult{simOf(c.Baseline), simOf(c.HDS), simOf(c.HALO)}
	for _, v := range []prefix.Variant{prefix.VariantHot, prefix.VariantHDS, prefix.VariantHDSHot} {
		want = append(want, simOf(c.PreFix[v]))
	}
	for i := range want {
		if i >= len(job.Runs) || !reflect.DeepEqual(job.Runs[i], want[i]) {
			return fmt.Sprintf("%s: traced %s run differs from the suite's", c.Benchmark, evalKeys[i])
		}
	}
	if job.Best != c.Best {
		return fmt.Sprintf("%s: traced best variant %v, suite %v", c.Benchmark, job.Best, c.Best)
	}
	return ""
}

// obsTotals runs one RunSuite pass with the program's own obs.Tracer
// attached and totals its spans by stage class: profile-run, analyze,
// hotness, hds-mining (profile and planner), plan <variant> and
// eval <strategy>.
func obsTotals(w workload) (map[string]float64, error) {
	opt := w.suiteOptions()
	opt.Tracer = obs.NewTracer()
	if _, err := pipeline.RunSuite(w.Benchmarks, opt, 1); err != nil {
		return nil, err
	}
	tot := make(map[string]float64)
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		name := s.Name
		switch {
		case strings.HasPrefix(name, "plan "):
			name = "plan"
		case strings.HasPrefix(name, "eval "):
			name = "eval"
		}
		tot[name] += s.Duration().Seconds()
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range opt.Tracer.Roots() {
		walk(r)
	}
	return tot, nil
}

// offlineObsTotals runs the offline flow's planning with the planner's
// own spans attached (prefix-analyze's plan span and its hds-mining
// child).
func offlineObsTotals(w workload, workDir string) (map[string]float64, error) {
	tr := obs.NewTracer()
	for _, b := range w.Benchmarks {
		a, err := streamAnalyze(spillPath(workDir, b))
		if err != nil {
			return nil, err
		}
		root := tr.Start("plan hds+hot")
		cfg := offlinePlanConfig(b)
		cfg.Trace = root
		_, _, err = prefix.BuildPlan(a, cfg)
		root.End()
		if err != nil {
			return nil, err
		}
	}
	tot := make(map[string]float64)
	for _, r := range tr.Roots() {
		tot["plan"] += r.Duration().Seconds()
		for _, c := range r.Children() {
			if c.Name == "hds-mining" {
				tot["hds-mining"] += c.Duration().Seconds()
			}
		}
	}
	return tot, nil
}

// decodeOnly reads every event of a spill file without analyzing it.
func decodeOnly(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sr, err := trace.NewStreamReader(f)
	if err != nil {
		return 0, err
	}
	for {
		if _, ok := sr.Next(); !ok {
			break
		}
	}
	return sr.Events(), sr.Err()
}

// missPcts returns pooled L1, LLC and TLB miss percentages.
func missPcts(c cachesim.Counts) [3]float64 {
	return [3]float64{100 * c.L1MissRate(), 100 * c.LLCMissRate(), 100 * c.TLBMissRate()}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
