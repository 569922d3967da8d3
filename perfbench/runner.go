package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"prefix/internal/cachesim"
	"prefix/internal/hds"
	"prefix/internal/hotness"
	"prefix/internal/mem"
	"prefix/internal/pipeline"
	"prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// runner executes one benchmark run: set-up, the measured passes, and
// the run-level output checks.
type runner struct {
	w        workload
	seed     uint64
	seconds  float64
	traced   bool
	workDir  string
	recordTo string
	log      io.Writer

	attempted, failed int
	problems          []string
	tr                *tracer

	// firstOut is each job's output from the run's first pass; later
	// passes must reproduce it.
	firstOut map[string][]byte
	// setupTimes are the offline workload's spill recording times.
	setupTimes []float64
	passWalls  []float64
}

// fail counts jobs as failed and records why.
func (r *runner) fail(jobs int, format string, args ...any) {
	r.failed += jobs
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// passSample is the host cost of one untraced pass.
type passSample struct {
	wall, cpu, allocMB float64
	events             uint64
}

const mb = 1 << 20

// cpuSeconds is the process's user+system time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
}

// sample measures f, which returns the simulated or analyzed events it
// processed. A collection first makes every pass start from the same
// heap, so the previous pass's garbage is not charged to this one.
func sample(f func() uint64) passSample {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, t0 := ms.TotalAlloc, cpuSeconds(), time.Now()
	ev := f()
	s := passSample{wall: since(t0), cpu: cpuSeconds() - cpu0, events: ev}
	runtime.ReadMemStats(&ms)
	s.allocMB = float64(ms.TotalAlloc-alloc0) / mb
	return s
}

// checkOutput compares one job's rendered output with the expected file
// (when the run has one) and with the run's first pass.
func (r *runner) checkOutput(key string, got []byte, jobs int) {
	if r.recordTo != "" {
		if err := writeExpected(r.recordTo, key, got); err != nil {
			r.fail(jobs, "recording %s: %v", key, err)
		}
	} else if want, ok, err := expectedOutput(r.w, r.seed, key); ok && err != nil {
		r.fail(jobs, "%s: no expected output: %v", key, err)
		return
	} else if ok && !bytes.Equal(checkedForm(key, got), want) {
		r.fail(jobs, "%s: output differs from testdata/expected/%s", key, key)
		return
	}
	if r.firstOut == nil {
		r.firstOut = make(map[string][]byte)
	}
	if first, ok := r.firstOut[key]; !ok {
		r.firstOut[key] = got
	} else if !bytes.Equal(first, got) {
		r.fail(jobs, "%s: output differs from the run's first pass", key)
	}
}

// suitePass runs the workload through pipeline.RunSuite and checks it.
func (r *runner) suitePass() ([]*pipeline.Comparison, passSample) {
	var cmps []*pipeline.Comparison
	var err error
	s := sample(func() uint64 {
		cmps, err = pipeline.RunSuite(r.w.Benchmarks, r.w.suiteOptions(), 1)
		var ev uint64
		for _, c := range cmps {
			ev += c.Events
		}
		return ev
	})
	n := len(r.w.Benchmarks)
	r.attempted += n
	if err != nil {
		r.fail(n, "suite pass: %v", err)
		return nil, s
	}
	tables, err := renderTables(cmps)
	if err != nil {
		r.fail(n, "rendering tables: %v", err)
		return nil, s
	}
	r.checkOutput(r.w.Name+".tables.txt", tables, n)
	for _, c := range cmps {
		if err := validatePlans(c); err != nil {
			r.fail(1, "%v", err)
		}
	}
	return cmps, s
}

// offlineResult is one offline pass's per-benchmark output.
type offlineResult struct {
	analyses []*trace.Analysis
	plans    []*prefix.Plan
	js       [][]byte
}

// offlinePass runs the analyze → plan flow over every spill file.
func (r *runner) offlinePass() (offlineResult, passSample) {
	var out offlineResult
	s := sample(func() uint64 {
		var ev uint64
		for _, b := range r.w.Benchmarks {
			a, plan, js, err := offlineJob(b, spillPath(r.workDir, b))
			if err != nil {
				r.fail(1, "%s: %v", b, err)
				a = nil
			} else {
				ev += uint64(a.Events)
			}
			out.analyses = append(out.analyses, a)
			out.plans = append(out.plans, plan)
			out.js = append(out.js, js)
		}
		return ev
	})
	r.attempted += len(r.w.Benchmarks)
	for i, b := range r.w.Benchmarks {
		if out.plans[i] == nil {
			continue
		}
		if err := out.plans[i].Validate(); err != nil {
			r.fail(1, "%s plan: %v", b, err)
			continue
		}
		r.checkOutput(b+".plan.json", out.js[i], 1)
	}
	return out, s
}

// recordSpills records every benchmark's spill file, returning the time.
func (r *runner) recordSpills() (float64, error) {
	if err := os.MkdirAll(spillPath(r.workDir, ""), 0o755); err != nil {
		return 0, err
	}
	t0 := time.Now()
	for _, b := range r.w.Benchmarks {
		if err := recordSpill(b, spillPath(r.workDir, b), r.seed); err != nil {
			return 0, err
		}
	}
	return since(t0), nil
}

// setupRepeats is how many times the offline workload records its spill
// files; set-up reports the median.
const setupRepeats = 3

// measure performs the run and assembles its result.
func (r *runner) measure() (result, error) {
	if r.traced {
		r.tr = newTracer()
	}
	// Set-up. Suite workloads: the first, cold pass (lazy initialisation
	// and warm-up). Offline: record the spill files several times, then
	// one warm-up pass.
	var setup float64
	var lastCmps []*pipeline.Comparison
	var lastOff offlineResult
	if r.w.Offline {
		for i := 0; i < setupRepeats; i++ {
			t, err := r.recordSpills()
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			r.setupTimes = append(r.setupTimes, t)
		}
		setup = median(r.setupTimes)
		lastOff, _ = r.offlinePass()
	} else {
		var s passSample
		lastCmps, s = r.suitePass()
		setup = s.wall
	}
	fmt.Fprintf(r.log, "perfbench: %s set-up %.3fs\n", r.w.Name, setup)

	var obsTot map[string]float64
	if r.traced {
		var err error
		if r.w.Offline {
			obsTot, err = offlineObsTotals(r.w, r.workDir)
		} else {
			obsTot, err = obsTotals(r.w)
		}
		if err != nil {
			r.attempted += len(r.w.Benchmarks)
			r.fail(len(r.w.Benchmarks), "obs cross-check pass: %v", err)
		}
	}

	var samples []passSample
	var layerPasses []map[string]float64
	start := time.Now()
	for len(samples) == 0 || since(start) < r.seconds {
		var s passSample
		if r.w.Offline {
			lastOff, s = r.offlinePass()
		} else {
			lastCmps, s = r.suitePass()
		}
		samples = append(samples, s)
		r.passWalls = append(r.passWalls, s.wall)
		if r.traced {
			if r.w.Offline {
				layerPasses = append(layerPasses, r.tracedOfflinePass(lastOff))
			} else {
				layerPasses = append(layerPasses, r.tracedSuitePass(lastCmps))
			}
		}
	}
	rss := peakRSSMB()
	fmt.Fprintf(r.log, "perfbench: %s %d measured passes in %.1fs\n", r.w.Name, len(samples), since(start))

	// Run-level checks and the deterministic simulated outcome.
	var out outcome
	if r.w.Offline {
		out = r.offlineOutcome(lastOff)
	} else {
		out = r.suiteOutcome(lastCmps)
	}

	res := result{Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0}
	if r.traced {
		res.Metrics = r.layerMetrics(layerPasses, samples, out, obsTot).export()
	} else {
		m := newMetricSet(endToEnd)
		m.set("setup_s", setup)
		m.set("wall_s", median(pick(samples, func(s passSample) float64 { return s.wall })))
		m.set("cpu_s", median(pick(samples, func(s passSample) float64 { return s.cpu })))
		m.set("events_per_s", median(pick(samples, func(s passSample) float64 { return float64(s.events) / s.wall })))
		m.set("host_alloc_mb", median(pick(samples, func(s passSample) float64 { return s.allocMB })))
		m.set("peak_rss_mb", rss)
		m.set("prefix_cycles_ratio", out.ratio)
		m.set("ok_frac", float64(r.attempted-r.failed)/float64(r.attempted))
		for _, n := range m.names() {
			fmt.Fprintf(r.log, "  %-22s %14.6g %s\n", n, m.values[n], m.defs[n])
		}
		res.Metrics = m.export()
	}
	return res, nil
}

// outcome is the run's simulated result: deterministic for a given
// workload and seed.
type outcome struct {
	ratio             float64
	base, best        cachesim.Counts
	callsAvoided      uint64
	spurious          uint64
	regionBytes       uint64
	hdsSpur, haloSpur uint64
	fileBytes         uint64
}

// suiteOutcome audits the last pass's PreFix captures and collects its
// simulated counts.
func (r *runner) suiteOutcome(cmps []*pipeline.Comparison) outcome {
	var out outcome
	if cmps == nil {
		return out
	}
	r.attempted += len(cmps)
	spurious, problems := checkSuiteCaptures(r.w, cmps)
	for _, p := range problems {
		r.fail(1, "%s", p)
	}
	out.spurious = spurious
	out.ratio = suiteRatio(cmps)
	for _, c := range cmps {
		best := c.BestResult()
		out.base.Add(c.Baseline.Metrics.Cache)
		out.best.Add(best.Metrics.Cache)
		if best.Capture != nil {
			out.callsAvoided += best.Capture.CallsAvoided()
		}
		out.regionBytes += c.Plans[c.Best].RegionSize
		if p := c.HDS.Pollution; p != nil {
			out.hdsSpur += p.Spurious()
		}
		if p := c.HALO.Pollution; p != nil {
			out.haloSpur += p.Spurious()
		}
	}
	return out
}

// offlineOutcome checks that the streamed analysis equals the in-memory
// one, then evaluates each plan against the baseline on the recorded
// input, auditing its captures.
func (r *runner) offlineOutcome(off offlineResult) outcome {
	var out outcome
	var pairs [][2]float64
	for i, b := range r.w.Benchmarks {
		r.attempted++
		path := spillPath(r.workDir, b)
		if st, err := os.Stat(path); err == nil {
			out.fileBytes += uint64(st.Size())
		}
		if i >= len(off.analyses) || off.analyses[i] == nil {
			r.fail(1, "%s: no analysis to check", b)
			continue
		}
		if err := sameAsInMemory(path, off.analyses[i]); err != nil {
			r.fail(1, "%s: %v", b, err)
			continue
		}
		spec, err := workloads.Get(b)
		if err != nil {
			r.fail(1, "%s: %v", b, err)
			continue
		}
		cfg := recordConfig(spec, r.seed)
		prof := &pipeline.Profile{Analysis: off.analyses[i], Hot: prefix.SelectHot(off.analyses[i], offlinePlanConfig(b))}
		bm, err := baselineRun(b, cfg)
		if err != nil {
			r.fail(1, "%s: %v", b, err)
			continue
		}
		pm, audit, err := auditRun(b, cfg, off.plans[i], prof)
		if err != nil {
			r.fail(1, "%s: %v", b, err)
			continue
		}
		if audit.spurious != 0 {
			r.fail(1, "%s: %d of %d PreFix captures are not hot", b, audit.spurious, audit.captured)
		}
		pairs = append(pairs, [2]float64{bm.Cycles, pm.Cycles})
		out.base.Add(bm.Cache)
		out.best.Add(pm.Cache)
		out.callsAvoided += audit.Capture().CallsAvoided()
		out.spurious += audit.spurious
		out.regionBytes += off.plans[i].RegionSize
	}
	out.ratio = cyclesRatio(pairs)
	return out
}

// sameAsInMemory checks that the streamed analysis of path equals
// trace.Read followed by trace.Analyze on the same file.
func sameAsInMemory(path string, streamed *trace.Analysis) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return fmt.Errorf("trace.Read: %w", err)
	}
	if !reflect.DeepEqual(trace.Analyze(tr), streamed) {
		return fmt.Errorf("streamed analysis differs from trace.Read + trace.Analyze")
	}
	return nil
}

// tracedSuitePass performs every job's decomposed sequence and returns
// the pass's per-layer values. ref is the untraced pass just before it,
// whose simulated results the traced jobs must reproduce.
func (r *runner) tracedSuitePass(ref []*pipeline.Comparison) map[string]float64 {
	from := len(r.tr.spans)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var jobs []*tracedJob
	for i, b := range r.w.Benchmarks {
		r.tr.job++
		r.attempted++
		job, err := suiteJob(r.tr, r.w, b)
		if err != nil {
			r.fail(1, "traced %s: %v", b, err)
			continue
		}
		if ref != nil {
			if d := sameAsSuite(job, ref[i]); d != "" {
				r.fail(1, "%s", d)
			}
		}
		jobs = append(jobs, job)
	}
	runtime.ReadMemStats(&ms1)
	v := r.tr.values(from)
	v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["runtime.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	var covered, heap uint64
	for _, j := range jobs {
		a := j.Profile.Analysis
		v["trace.events"] += float64(a.Events)
		v["trace.objects"] += float64(len(a.Objects))
		v["machine.profile_run_events"] += float64(j.ProfEvts)
		v["hds.refs"] += float64(j.Refs)
		v["hds.streams_lcs"] += float64(j.Streams[0])
		v["hds.streams_sequitur"] += float64(j.Streams[1])
		v["hotness.hot_objects"] += float64(len(j.Profile.Hot.Objects))
		covered += j.Profile.Hot.CoveredAccesses
		heap += j.Profile.Hot.HeapAccesses
		for _, run := range j.Runs {
			v["machine.eval_events"] += float64(run.Metrics.Events())
		}
	}
	if heap > 0 {
		v["hotness.coverage_pct"] = 100 * float64(covered) / float64(heap)
	}
	return v
}

// tracedOfflinePass performs each offline job inside spans, then probes
// decode alone and LCS mining alone on the same input (outside the job
// spans, so they do not count toward job time).
func (r *runner) tracedOfflinePass(ref offlineResult) map[string]float64 {
	from := len(r.tr.spans)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	v := map[string]float64{}
	var covered, heap uint64
	for i, b := range r.w.Benchmarks {
		r.tr.job++
		r.attempted++
		path := spillPath(r.workDir, b)
		cfg := offlinePlanConfig(b)
		var (
			a    *trace.Analysis
			hot  *hotness.Set
			plan *prefix.Plan
			js   []byte
			err  error
		)
		r.tr.do("pipeline.job."+b, "pipeline", func() {
			r.tr.do("trace.analyze", "trace", func() { a, err = streamAnalyze(path) })
			if err != nil {
				return
			}
			r.tr.do("hotness.select", "hotness", func() { hot = prefix.SelectHot(a, cfg) })
			r.tr.do("prefix.plan.hds-hot", "prefix", func() {
				plan, _, err = prefix.BuildPlanFromHot(a, hot, cfg)
				if err == nil {
					var buf bytes.Buffer
					err = plan.WriteJSON(&buf)
					js = buf.Bytes()
				}
			})
		})
		if err != nil {
			r.fail(1, "traced %s: %v", b, err)
			continue
		}
		if i < len(ref.js) && !bytes.Equal(js, ref.js[i]) {
			r.fail(1, "traced %s: plan differs from the untraced pass", b)
		}
		var refs []mem.ObjectID
		var lcs []hds.Stream
		r.tr.do("trace.decode", "trace", func() { _, err = decodeOnly(path) })
		r.tr.do("hds.collapse", "hds", func() { refs = hds.CollapseRefs(a.Refs, hot.IDs) })
		r.tr.do("hds.mine_lcs", "hds", func() { lcs = hds.MineLCS(refs, cfg.HDS) })
		if err != nil {
			r.fail(1, "decoding %s: %v", b, err)
		}
		v["trace.events"] += float64(a.Events)
		v["trace.objects"] += float64(len(a.Objects))
		v["hds.refs"] += float64(len(refs))
		v["hds.streams_lcs"] += float64(len(lcs))
		v["hotness.hot_objects"] += float64(len(hot.Objects))
		covered += hot.CoveredAccesses
		heap += hot.HeapAccesses
	}
	runtime.ReadMemStats(&ms1)
	for k, x := range r.tr.values(from) {
		v[k] += x
	}
	v["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	v["runtime.gc_pause_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
	if heap > 0 {
		v["hotness.coverage_pct"] = 100 * float64(covered) / float64(heap)
	}
	return v
}

// values totals the spans recorded since index from: each span's
// duration under "<name>_s", self times per layer for spans inside
// jobs, pipeline.other_s (job time outside every layer call), the
// allocation figures, and the job wall time under bench.job_wall_s.
func (t *tracer) values(from int) map[string]float64 {
	v := map[string]float64{}
	self := t.selfTimes(from)
	root := make([]int, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		root[i] = i
		if s.Parent >= from {
			root[i] = root[s.Parent]
		}
		v[s.Name+"_s"] += s.seconds()
		inJob := t.spans[root[i]].Layer == "pipeline"
		switch {
		case s.Layer == "pipeline":
			v["pipeline.other_s"] += self[i]
			v["bench.job_wall_s"] += s.seconds()
		case inJob:
			v["layer."+s.Layer+"_s"] += self[i]
		}
		switch {
		case s.Name == "trace.analyze":
			v["trace.analyze_alloc_mb"] += float64(s.AllocBytes) / mb
		case strings.HasPrefix(s.Name, "prefix.plan."):
			v["prefix.plan_s"] += s.seconds()
			v["prefix.plan_alloc_mb"] += float64(s.AllocBytes) / mb
		case strings.HasPrefix(s.Name, "machine.eval."):
			v["machine.eval_s"] += s.seconds()
			v["machine.eval_allocs"] += float64(s.Mallocs)
		}
	}
	return v
}

// layerMetrics assembles the traced run's per-layer metrics: the median
// over traced passes of every timed value, the deterministic counts, and
// the cross-check totals.
func (r *runner) layerMetrics(passes []map[string]float64, untraced []passSample, out outcome, obsTot map[string]float64) *metricSet {
	m := newMetricSet(perLayer)
	keys := map[string]bool{}
	for _, p := range passes {
		for k := range p {
			keys[k] = true
		}
	}
	med := map[string]float64{}
	for k := range keys {
		med[k] = median(pickMap(passes, k))
	}
	for k, x := range med {
		if _, ok := m.defs[k]; ok {
			m.set(k, x)
		}
	}
	rate := func(name, secs, base string) {
		if b := med[base]; b > 0 {
			m.set(name, 1e9*med[secs]/b)
		}
	}
	rate("hds.lcs_ns_per_ref", "hds.mine_lcs_s", "hds.refs")
	rate("trace.analyze_ns_per_event", "trace.analyze_s", "trace.events")
	rate("machine.eval_ns_per_event", "machine.eval_s", "machine.eval_events")
	if w := median(pick(untraced, func(s passSample) float64 { return s.wall })); w > 0 {
		m.set("bench.tracing_overhead_pct", 100*(med["bench.job_wall_s"]/w-1))
	}
	bp, xp := missPcts(out.base), missPcts(out.best)
	for i, c := range []string{"l1", "llc", "tlb"} {
		m.set("cachesim."+c+"_miss_pct.baseline", bp[i])
		m.set("cachesim."+c+"_miss_pct.best", xp[i])
	}
	m.set("prefix.calls_avoided", float64(out.callsAvoided))
	m.set("prefix.spurious", float64(out.spurious))
	m.set("prefix.region_kb", float64(out.regionBytes)/1024)
	m.set("baselines.hds_spurious", float64(out.hdsSpur))
	m.set("baselines.halo_spurious", float64(out.haloSpur))
	if r.w.Offline {
		m.set("trace.file_mb", float64(out.fileBytes)/mb)
		m.set("trace.spill_write_s", median(r.setupTimes))
	}
	for _, s := range obsStages {
		m.set("obs."+s+"_s", obsTot[s])
	}
	r.printCrossCheck(m)
	return m
}

// printCrossCheck prints the outside-timed layer numbers next to the
// program's own obs.Tracer totals, and each kernel rate with its base.
func (r *runner) printCrossCheck(m *metricSet) {
	v := m.values
	rows := []struct {
		stage   string
		outside float64
	}{
		{"profile-run", v["machine.profile_run_s"]},
		{"analyze", v["trace.analyze_s"]},
		{"hotness", v["hotness.select_s"]},
		{"hds-mining", v["hds.collapse_s"] + v["hds.mine_lcs_s"] + v["hds.mine_sequitur_s"]},
		{"plan", v["prefix.plan_s"]},
		{"eval", v["machine.eval_s"]},
	}
	fmt.Fprintf(r.log, "%-12s %12s %12s\n", "stage", "outside_s", "obs.Tracer_s")
	for _, row := range rows {
		fmt.Fprintf(r.log, "%-12s %12.4f %12.4f\n", row.stage, row.outside, v["obs."+row.stage+"_s"])
	}
	fmt.Fprintf(r.log, "hds.lcs_ns_per_ref %.1f over hds.refs %.0f\n", v["hds.lcs_ns_per_ref"], v["hds.refs"])
	fmt.Fprintf(r.log, "trace.analyze_ns_per_event %.1f over trace.events %.0f\n", v["trace.analyze_ns_per_event"], v["trace.events"])
	fmt.Fprintf(r.log, "machine.eval_ns_per_event %.1f over machine.eval_events %.0f\n", v["machine.eval_ns_per_event"], v["machine.eval_events"])
	for _, n := range m.names() {
		fmt.Fprintf(r.log, "  %-36s %14.6g %s\n", n, v[n], m.defs[n])
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func pick(ss []passSample, f func(passSample) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

func pickMap(ms []map[string]float64, k string) []float64 {
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = m[k]
	}
	return out
}
