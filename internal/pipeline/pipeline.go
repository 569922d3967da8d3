// Package pipeline orchestrates the full PreFix flow of the paper's
// Figure 8 for one benchmark: run the profiling input under the tracing
// machine, analyze the trace (hot objects, hot data streams, layout,
// contexts), build the per-variant plans and baseline configurations, run
// the evaluation input under every allocation strategy, and assemble the
// measurements every table and figure reports.
package pipeline

import (
	"fmt"
	"time"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/machine"
	"prefix/internal/obs"
	"prefix/internal/obs/perfstat"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// Options configures a benchmark evaluation.
type Options struct {
	// Cache is the simulated memory hierarchy (ScaledConfig by default).
	Cache cachesim.Config
	// Plan is the base planning configuration; Variant is overridden per
	// run and Benchmark is filled in by the pipeline.
	Plan prefix.PlanConfig
	// UseBenchScale selects spec.Bench instead of spec.Long for the
	// evaluation runs (used by the Go benchmark harness).
	UseBenchScale bool
	// CaptureLongRun additionally records and analyzes the best PreFix
	// evaluation run, producing the Table 5 long-run columns. Costs
	// memory proportional to the trace length.
	CaptureLongRun bool
	// Variants to evaluate; defaults to all three.
	Variants []prefix.Variant
	// Metrics, when non-nil, receives every stage's counters and every
	// run's metrics (exportable as Prometheus text or JSON). Tracer, when
	// non-nil, receives one span per Figure-8 phase. Both default to nil;
	// the no-op path does no observability work, so reported numbers are
	// identical with or without them.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Perf, when non-nil, receives host-cost samples: every profile,
	// suite, variance, multithreaded, and figure9 job is bracketed by a
	// perfstat scope measuring wall time, heap allocation, GC cost, and
	// events/sec throughput on the host. Like Metrics/Tracer it is
	// nil-safe and never influences reported results.
	Perf *perfstat.Collector
	// Labels are extra label key/value pairs appended to every metric
	// series the pipeline publishes. The variance sweep uses it to attach
	// a "seed" label so all N seed runs survive in the export instead of
	// overwriting one another.
	Labels []string
	// Progress, when non-nil, receives a structured obs.JobEvent as each
	// suite job starts (running) and finishes (done or failed) — the CLIs
	// print stderr progress lines through it and feed the observability
	// server's /status tracker from the same stream. Suite runners invoke
	// it from worker goroutines, so it must be safe for concurrent use.
	Progress func(ev obs.JobEvent)
	// Attribution enables object-centric attribution: every evaluation
	// run's machine charges each cache/TLB event to the malloc site that
	// owns the touched address (RunResult.Attrib), every plan build
	// records its decision ledger (Summary.Ledger), per-site
	// prefix_attrib_* series are published when Metrics is attached, and
	// per-benchmark Explain documents are stored when Explain is
	// attached. Purely observational: reported Counts and report bytes
	// are identical with or without it — the attribution walk is the
	// same simulation path — at the cost of one range lookup per access.
	Attribution bool
	// Explain, when non-nil (and Attribution is on), receives one
	// per-benchmark Explain document as each suite job completes; the
	// obshttp /explain endpoint serves its snapshot.
	Explain *obs.ExplainStore
	// Shards is ignored.
	//
	// Deprecated: trace analysis is always single-pass. The field is
	// read nowhere and stays only so existing callers keep compiling.
	Shards int
}

// progress invokes the Progress callback when one is set.
func (o Options) progress(ev obs.JobEvent) {
	if o.Progress != nil {
		o.Progress(ev)
	}
}

// instrumentJob brackets one job body with running/done/failed progress
// events. Panics inside body are converted to errors (so the failed event
// always fires) and propagated as errors, exactly as runJobs would have
// reported them.
func (o Options) instrumentJob(ev obs.JobEvent, body func() error) error {
	ev.State = obs.JobRunning
	ev.Err = ""
	o.progress(ev)
	err := runProtected(body)
	if err != nil {
		ev.State = obs.JobFailed
		ev.Err = err.Error()
	} else {
		ev.State = obs.JobDone
	}
	o.progress(ev)
	return err
}

// DefaultOptions returns the standard evaluation setup.
func DefaultOptions() Options {
	return Options{
		Cache:    cachesim.ScaledConfig(),
		Plan:     prefix.DefaultPlanConfig("", prefix.VariantHDSHot),
		Variants: []prefix.Variant{prefix.VariantHot, prefix.VariantHDS, prefix.VariantHDSHot},
	}
}

// Profile is the product of the profiling run.
type Profile struct {
	Analysis *trace.Analysis
	Hot      *hotness.Set
	// StreamsLCS is the paper's LCS-mined OHDS (drives PreFix planning
	// and HALO affinity grouping); StreamsSequitur drives the HDS
	// baseline's site choice, as in the original HDS work. Both are
	// mined once, from CollapsedRefs collapsed hot references, and every
	// plan built from the profile reads them (see Streams).
	StreamsLCS      []hds.Stream
	StreamsSequitur []hds.Stream
	CollapsedRefs   int
	// Metrics of the profiling run itself.
	Metrics machine.Metrics
	// Stats is what the profiling recorder captured; the event total
	// feeds host-cost throughput accounting.
	Stats trace.RecorderStats
	// AnalysisHost is the analyze stage's own host-cost sample (wall
	// time, allocation, events/sec over the trace's events), measured
	// when Options.Perf is attached; nil otherwise. It never feeds
	// report output.
	AnalysisHost *perfstat.Sample
}

// Streams returns the profile's OHDS mined by m.
func (p *Profile) Streams(m prefix.Miner) []hds.Stream {
	if m == prefix.MinerSequitur {
		return p.StreamsSequitur
	}
	return p.StreamsLCS
}

// CollectProfile runs the benchmark's profiling input under the tracing
// machine with the baseline allocator and analyzes the trace.
func CollectProfile(spec workloads.Spec, opt Options) (*Profile, error) {
	span := opt.Tracer.Start("profile " + spec.Program.Name())
	defer span.End()
	return collectProfile(spec, opt, span)
}

// collectProfile is CollectProfile under a caller-provided parent span:
// it emits one child span per profiling stage (profile-run, analyze,
// hotness, hds-mining) and publishes the stage counters when a registry
// is attached.
func collectProfile(spec workloads.Spec, opt Options, parent *obs.Span) (*Profile, error) {
	name := spec.Program.Name()
	sc := opt.Perf.Begin("profile").AttachSpan(parent)
	defer sc.End()

	a, metrics, stats, anHost := profileRun(spec, opt, parent)
	sc.AddEvents(stats.Events)
	if a.HeapAccesses == 0 {
		return nil, fmt.Errorf("pipeline: %s profiling run produced no heap accesses", name)
	}

	hotSpan := parent.Child("hotness")
	cfg := opt.Plan
	cfg.Benchmark = name
	hot := prefix.SelectHot(a, cfg)
	hotSpan.Set("hot_objects", len(hot.Objects))
	hotSpan.Set("coverage_pct", hot.CoveragePct())
	hotSpan.End()

	mineSpan := parent.Child("hds-mining")
	refs := hds.CollapseRefs(a.Refs, hot.IDs)
	lcs := prefix.MineRefs(refs, hot, prefix.MinerLCS, cfg.HDS)
	seq := prefix.MineRefs(refs, hot, prefix.MinerSequitur, cfg.HDS)
	mineSpan.Set("streams_lcs", len(lcs))
	mineSpan.Set("streams_sequitur", len(seq))
	mineSpan.End()

	if reg := opt.Metrics; reg != nil {
		kv := append([]string{"benchmark", name}, opt.Labels...)
		metrics.Publish(reg, append(kv, "run", "profile")...)
		stats.Publish(reg, kv...)
		reg.Counter("prefix_profile_trace_events_total", kv...).Add(stats.Events)
		reg.Counter("prefix_profile_heap_accesses_total", kv...).Add(a.HeapAccesses)
		reg.Gauge("prefix_profile_objects", kv...).Set(float64(len(a.Objects)))
		reg.Gauge("prefix_profile_hot_objects", kv...).Set(float64(len(hot.Objects)))
		reg.Gauge("prefix_profile_hot_coverage_pct", kv...).Set(hot.CoveragePct())
		reg.Gauge("prefix_profile_streams_lcs", kv...).Set(float64(len(lcs)))
		reg.Gauge("prefix_profile_streams_sequitur", kv...).Set(float64(len(seq)))
	}

	return &Profile{
		Analysis:        a,
		Hot:             hot,
		StreamsLCS:      lcs,
		StreamsSequitur: seq,
		CollapsedRefs:   len(refs),
		Metrics:         metrics,
		Stats:           stats,
		AnalysisHost:    anHost,
	}, nil
}

// profileRun runs the profiling input under the tracing machine with
// the baseline allocator, with the trace analyzer as the machine's
// recorder: each event batch is analyzed as it is recorded, so no event
// slice is built. The profile-run span therefore covers simulating and
// feeding the analyzer. The analyze stage reports the analyzer's own
// share: Finish, plus — when a host-cost collector is attached — the
// feed time, measured once per batch and credited to the analyze sample
// and the span's feed_ns annotation. Recording a trace to a file is
// prefix-trace's job.
func profileRun(spec workloads.Spec, opt Options, parent *obs.Span) (*trace.Analysis, machine.Metrics, trace.RecorderStats, *perfstat.Sample) {
	runSpan := parent.Child("profile-run")
	an := trace.NewAnalyzer()
	var rec trace.EventRecorder = an
	var feed *timedFeed
	if opt.Perf != nil {
		feed = &timedFeed{an: an, now: opt.Perf.Now}
		rec = feed
	}
	m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, machine.WithRecorder(rec))
	spec.Program.Run(m, spec.Profile)
	metrics := m.Finish()
	stats := an.Stats()
	runSpan.Set("events", stats.Events)
	runSpan.End()

	anSpan := parent.Child("analyze")
	defer anSpan.End()
	asc := opt.Perf.Begin("analyze").AttachSpan(anSpan)
	a := an.Finish()
	asc.AddEvents(stats.Events)
	if feed != nil {
		asc.AddWall(feed.elapsed)
		anSpan.Set("feed_ns", feed.elapsed.Nanoseconds())
	}
	sample := asc.End()
	anSpan.Set("objects", len(a.Objects))
	anSpan.Set("heap_accesses", a.HeapAccesses)
	var host *perfstat.Sample
	if opt.Perf != nil {
		host = &sample
	}
	return a, metrics, stats, host
}

// timedFeed is the profiling run's recorder when host cost is measured:
// it passes each batch to the analyzer and sums the time the analyzer
// spends on it, two clock reads per batch.
type timedFeed struct {
	an      *trace.Analyzer
	now     func() time.Time
	elapsed time.Duration
}

func (f *timedFeed) RecordBatch(evs []trace.Event) {
	t0 := f.now()
	f.an.RecordBatch(evs)
	f.elapsed += f.now().Sub(t0)
}

func (f *timedFeed) AddInstr(n uint64) { f.an.AddInstr(n) }
