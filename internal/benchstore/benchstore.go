// Package benchstore gives suite runs a durable, comparable record: each
// run's per-benchmark headline metrics are snapshotted (with git/platform
// metadata) into a BENCH_<timestamp>.json document, and any run can be
// diffed against a recorded baseline — the bench suite's CI-enforceable
// regression gate. The tracked metrics are the evaluation's headline
// numbers: best-variant cycles, cache miss rates, baseline pollution,
// PreFix capture precision, and peak memory — plus, since schema 2, the
// per-benchmark host cost (wall time, events/sec throughput, heap
// allocation, GC pauses) and, since schema 4, the analyze stage's own
// throughput, so the simulator's own performance trajectory is gated
// alongside the simulated results.
package benchstore

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"prefix/internal/pipeline"
)

// Schema is the document version; bump on incompatible field changes.
// Version 2 added the per-benchmark "host" section; version 3 the
// optional per-benchmark "attrib" section (recorded only by attributed
// runs); version 4 the per-benchmark "analysis" section (the analyze
// stage's own wall time, events/sec, and shard count). Version 1
// documents (no host stats) still load, so old baselines keep gating
// the simulated metrics.
const Schema = 4

// minReadSchema is the oldest document version Read still accepts.
const minReadSchema = 1

// Run is one recorded suite run.
type Run struct {
	Schema     int         `json:"schema"`
	Timestamp  string      `json:"timestamp"` // RFC3339 UTC
	GitSHA     string      `json:"git_sha,omitempty"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Jobs       int         `json:"jobs"`
	Scale      string      `json:"scale"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one benchmark's headline results within a run.
type Benchmark struct {
	Name           string  `json:"name"`
	BaselineCycles float64 `json:"baseline_cycles"`
	BestVariant    string  `json:"best_variant"`
	BestCycles     float64 `json:"best_cycles"`
	// TimeDeltaPct is the best variant's execution-time change vs the
	// baseline (negative = reduction, Table 3 convention).
	TimeDeltaPct float64 `json:"time_delta_pct"`
	// L1MissPct/LLCMissPct are the best run's miss rates in percent.
	L1MissPct  float64 `json:"l1_miss_pct"`
	LLCMissPct float64 `json:"llc_miss_pct"`
	// HDSSpurious/HALOSpurious are the baselines' polluting (non-hot)
	// region placements (Table 4).
	HDSSpurious  uint64 `json:"hds_spurious"`
	HALOSpurious uint64 `json:"halo_spurious"`
	// CapturePct is the best run's capture precision: the share of
	// plan-matched allocations served from the preallocated region
	// (mallocs avoided / (mallocs avoided + fallbacks)), in percent.
	CapturePct float64 `json:"capture_pct"`
	PeakBytes  uint64  `json:"peak_bytes"`
	// Host is the benchmark job's measured host cost (schema 2; nil in
	// v1 documents and in runs recorded without a perfstat collector).
	Host *HostStats `json:"host,omitempty"`
	// Attrib is the best run's per-site attribution summary (schema 3;
	// nil in older documents and in runs recorded without -attrib).
	Attrib *AttribStats `json:"attrib,omitempty"`
	// Analysis is the profiling analyze stage's own host cost (schema 4;
	// nil in older documents and in runs recorded without a perfstat
	// collector).
	Analysis *AnalysisStats `json:"analysis,omitempty"`
}

// HostStats is the per-benchmark host-cost section: what the simulator
// itself spent evaluating the benchmark, as measured by perfstat.
type HostStats struct {
	WallNanos    int64   `json:"wall_nanos"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	GCPauseNanos uint64  `json:"gc_pause_nanos"`
	Goroutines   int     `json:"goroutines,omitempty"`
}

// AttribStats is the per-benchmark attribution section: how the best
// run's LLC misses distribute over allocation sites. Only attributed
// runs record it; gating on its metrics silently skips when either the
// baseline or the run lacks the section.
type AttribStats struct {
	// Sites is the number of allocation sites with attributed traffic.
	Sites int `json:"sites"`
	// TopSite is the site with the largest LLC-miss share, and
	// TopSiteLLCPct its share of the run's total LLC misses in percent.
	TopSite       uint32  `json:"top_site"`
	TopSiteLLCPct float64 `json:"top_site_llc_pct"`
	// UnattributedLLCPct is the share of LLC misses that hit memory no
	// tracked allocation owns (globals, stacks, freed objects).
	UnattributedLLCPct float64 `json:"unattributed_llc_pct"`
}

// AnalysisStats is the per-benchmark analyze-stage section: what the
// trace analysis alone cost on the host. EventsPerSec divides the
// profiling trace's event count by the stage's wall time. Shards is
// always 1 now that analysis is single-pass; the field stays so schema
// 4 documents keep their shape, and older snapshots recorded with a
// sharded analysis still show their shard count.
type AnalysisStats struct {
	WallNanos    int64   `json:"wall_nanos"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	Shards       int     `json:"shards"`
}

// Meta is the run-level metadata recorded alongside the results.
type Meta struct {
	Timestamp time.Time
	GitSHA    string
	Jobs      int
	Scale     string
}

// FromComparisons snapshots a comparison suite into a Run. GOOS/GOARCH
// are filled from the running binary.
func FromComparisons(cmps []*pipeline.Comparison, meta Meta) *Run {
	run := &Run{
		Schema:    Schema,
		Timestamp: meta.Timestamp.UTC().Format(time.RFC3339),
		GitSHA:    meta.GitSHA,
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Jobs:      meta.Jobs,
		Scale:     meta.Scale,
	}
	for _, c := range cmps {
		best := c.BestResult()
		b := Benchmark{
			Name:           c.Benchmark,
			BaselineCycles: c.Baseline.Metrics.Cycles,
			BestVariant:    c.Best.String(),
			BestCycles:     best.Metrics.Cycles,
			TimeDeltaPct:   best.TimeDeltaPct(c.Baseline),
			L1MissPct:      100 * best.Metrics.Cache.L1MissRate(),
			LLCMissPct:     100 * best.Metrics.Cache.LLCMissRate(),
			PeakBytes:      best.PeakBytes,
		}
		if p := c.HDS.Pollution; p != nil {
			b.HDSSpurious = p.Spurious()
		}
		if p := c.HALO.Pollution; p != nil {
			b.HALOSpurious = p.Spurious()
		}
		if cap := best.Capture; cap != nil {
			if total := cap.MallocsAvoided + cap.FallbackMallocs; total > 0 {
				b.CapturePct = 100 * float64(cap.MallocsAvoided) / float64(total)
			}
		}
		if a := best.Attrib; a.Enabled {
			st := &AttribStats{}
			total := a.Total().LLCMisses
			for _, s := range a.Sites {
				if s.Site != 0 && s.Counts.Accesses > 0 {
					st.Sites++
				}
			}
			if top := a.Top(1); len(top) > 0 {
				st.TopSite = uint32(top[0].Site)
				st.TopSiteLLCPct = a.LLCMissSharePct(top[0].Site)
			}
			if sentinel, ok := a.Of(0); ok && total > 0 {
				st.UnattributedLLCPct = 100 * float64(sentinel.Counts.LLCMisses) / float64(total)
			}
			b.Attrib = st
		}
		if p := c.Profile; p != nil && p.AnalysisHost != nil {
			b.Analysis = &AnalysisStats{
				WallNanos:    p.AnalysisHost.WallNanos,
				Events:       p.AnalysisHost.Events,
				EventsPerSec: p.AnalysisHost.EventsPerSec(),
				Shards:       1,
			}
		}
		if h := c.Host; h != nil {
			b.Host = &HostStats{
				WallNanos:    h.WallNanos,
				Events:       h.Events,
				EventsPerSec: h.EventsPerSec(),
				Allocs:       h.Allocs,
				AllocBytes:   h.AllocBytes,
				GCPauseNanos: h.GCPauseNanos,
				Goroutines:   h.Goroutines,
			}
		}
		run.Benchmarks = append(run.Benchmarks, b)
	}
	return run
}

// Filename renders the canonical snapshot name for a run started at t:
// BENCH_20060102T150405Z.json.
func Filename(t time.Time) string {
	return "BENCH_" + t.UTC().Format("20060102T150405Z") + ".json"
}

// GitSHA returns the repository's short HEAD commit in dir, or "" when
// git (or the repository) is unavailable — metadata, never an error.
func GitSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Write writes the run as indented JSON.
func (r *Run) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the run to path.
func (r *Run) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := r.Write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// Read parses a run document, rejecting unknown schema versions. Every
// version from minReadSchema through Schema loads: a v1 baseline simply
// has no host sections, and gating degrades gracefully (host metrics
// only gate once a baseline records them).
func Read(rd io.Reader) (*Run, error) {
	var run Run
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&run); err != nil {
		return nil, fmt.Errorf("benchstore: %w", err)
	}
	if run.Schema < minReadSchema || run.Schema > Schema {
		return nil, fmt.Errorf("benchstore: unsupported schema %d (want %d..%d)", run.Schema, minReadSchema, Schema)
	}
	return &run, nil
}

// ReadFile reads a run document from path.
func ReadFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// metric is one gated series: its name, direction, threshold slack, and
// accessor.
type metric struct {
	name        string
	higherWorse bool // false: lower is worse (e.g. capture precision)
	// slack multiplies the gate threshold for this metric (0 = 1×). The
	// simulated metrics are deterministic, so they gate at the raw
	// threshold; host-measured metrics vary with the machine and get
	// headroom so hardware differences don't gate while order-of-
	// magnitude collapses still do.
	slack float64
	get   func(Benchmark) float64
}

// threshold returns the metric's effective gate threshold.
func (m metric) threshold(regressPct float64) float64 {
	if m.slack > 0 {
		return regressPct * m.slack
	}
	return regressPct
}

// tracked is the regression-gated metric set.
var tracked = []metric{
	{name: "baseline_cycles", higherWorse: true, get: func(b Benchmark) float64 { return b.BaselineCycles }},
	{name: "best_cycles", higherWorse: true, get: func(b Benchmark) float64 { return b.BestCycles }},
	{name: "l1_miss_pct", higherWorse: true, get: func(b Benchmark) float64 { return b.L1MissPct }},
	{name: "llc_miss_pct", higherWorse: true, get: func(b Benchmark) float64 { return b.LLCMissPct }},
	{name: "hds_spurious", higherWorse: true, get: func(b Benchmark) float64 { return float64(b.HDSSpurious) }},
	{name: "halo_spurious", higherWorse: true, get: func(b Benchmark) float64 { return float64(b.HALOSpurious) }},
	{name: "capture_pct", higherWorse: false, get: func(b Benchmark) float64 { return b.CapturePct }},
	{name: "peak_bytes", higherWorse: true, get: func(b Benchmark) float64 { return float64(b.PeakBytes) }},
	// events_per_sec is the schema-2 host throughput: lower is worse. A
	// v1 baseline (no host section) reads as 0, and a higher current
	// value is an improvement, so old baselines never gate on it. The
	// 1.5× slack keeps the effective threshold meaningful for a metric
	// whose drop maxes out at 100%: at the smoke gate's -regress-pct 50
	// it takes a 75% throughput drop (a 4× slowdown, past any plausible
	// machine-to-machine variance) to fail.
	{name: "events_per_sec", higherWorse: false, slack: 1.5, get: func(b Benchmark) float64 {
		if b.Host == nil {
			return 0
		}
		return b.Host.EventsPerSec
	}},
	// analysis_events_per_sec gates the schema-4 analyze-stage
	// throughput: lower is worse, and the same 1.5× host-metric slack
	// applies. NaN marks the section absent (a pre-v4 baseline, or a run
	// recorded without perfstat), so the metric gates only between two
	// documents that both carry it.
	{name: "analysis_events_per_sec", higherWorse: false, slack: 1.5, get: func(b Benchmark) float64 {
		if b.Analysis == nil {
			return math.NaN()
		}
		return b.Analysis.EventsPerSec
	}},
	// The attrib_* metrics gate the schema-3 attribution section. NaN
	// marks the section absent (a run without -attrib, or a pre-v3
	// baseline); degradation skips NaN on either side, so attribution
	// gates only between two attributed runs. Both are deterministic
	// simulated quantities, so they gate at the raw threshold: the
	// hottest site's miss concentration and the share of misses escaping
	// attribution entirely must not balloon.
	{name: "attrib_top_site_llc_pct", higherWorse: true, get: func(b Benchmark) float64 {
		if b.Attrib == nil {
			return math.NaN()
		}
		return b.Attrib.TopSiteLLCPct
	}},
	{name: "attrib_unattributed_llc_pct", higherWorse: true, get: func(b Benchmark) float64 {
		if b.Attrib == nil {
			return math.NaN()
		}
		return b.Attrib.UnattributedLLCPct
	}},
}

// Regression is one tracked metric that degraded past the threshold, or
// a benchmark that vanished from the run entirely.
type Regression struct {
	Benchmark string
	Metric    string
	Baseline  float64
	Current   float64
	// ChangePct is the degradation in percent (positive = worse;
	// +Inf when the baseline value was 0 and the run's is not).
	ChangePct float64
	// Missing marks a benchmark recorded in the baseline but absent
	// from the current run.
	Missing bool
	// New marks a benchmark present in the current run but absent from
	// the baseline. New entries are informational — Gate reports them
	// without failing, since an addition is not a regression — but they
	// surface unrecorded coverage so the baseline gets refreshed.
	New bool
}

func (r Regression) String() string {
	if r.Missing {
		return fmt.Sprintf("%s: missing from run (present in baseline)", r.Benchmark)
	}
	if r.New {
		return fmt.Sprintf("%s: not in baseline (new in run; refresh the baseline to track it)", r.Benchmark)
	}
	change := fmt.Sprintf("%+.2f%%", r.ChangePct)
	if math.IsInf(r.ChangePct, 1) {
		change = "+inf%"
	}
	return fmt.Sprintf("%s: %s %.4g -> %.4g (%s)", r.Benchmark, r.Metric, r.Baseline, r.Current, change)
}

// Compare diffs current against baseline and returns every tracked
// metric that degraded by more than regressPct percent (scaled by the
// metric's slack for host-measured series), plus any benchmark missing
// from the current run and — flagged New — any benchmark present in the
// run but absent from the baseline. Results are ordered by baseline
// benchmark name then tracked-metric order, with New entries appended
// (sorted by name) at the end.
func Compare(baseline, current *Run, regressPct float64) []Regression {
	byName := make(map[string]Benchmark, len(current.Benchmarks))
	for _, b := range current.Benchmarks {
		byName[b.Name] = b
	}
	inBaseline := make(map[string]bool, len(baseline.Benchmarks))
	base := append([]Benchmark(nil), baseline.Benchmarks...)
	sort.Slice(base, func(i, j int) bool { return base[i].Name < base[j].Name })
	var regs []Regression
	for _, bb := range base {
		inBaseline[bb.Name] = true
		cb, ok := byName[bb.Name]
		if !ok {
			regs = append(regs, Regression{Benchmark: bb.Name, Missing: true})
			continue
		}
		for _, m := range tracked {
			bv, cv := m.get(bb), m.get(cb)
			change, worse := degradation(bv, cv, m.higherWorse)
			if worse && change > m.threshold(regressPct) {
				regs = append(regs, Regression{
					Benchmark: bb.Name, Metric: m.name,
					Baseline: bv, Current: cv, ChangePct: change,
				})
			}
		}
	}
	var added []string
	for _, cb := range current.Benchmarks {
		if !inBaseline[cb.Name] {
			added = append(added, cb.Name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		regs = append(regs, Regression{Benchmark: name, New: true})
	}
	return regs
}

// degradation returns how much worse cur is than base, in percent of
// base, and whether it moved in the worse direction at all. A zero base
// with a worse cur is an infinite degradation (it always gates). NaN on
// either side marks an optional section absent from that document; the
// metric is skipped rather than gated.
func degradation(base, cur float64, higherWorse bool) (pct float64, worse bool) {
	if math.IsNaN(base) || math.IsNaN(cur) {
		return 0, false
	}
	delta := cur - base
	if !higherWorse {
		delta = -delta
	}
	if delta <= 0 {
		return 0, false
	}
	if base == 0 {
		return math.Inf(1), true
	}
	return 100 * delta / math.Abs(base), true
}

// Gate prints the comparison verdict to w and returns a non-nil error
// naming every offending benchmark and metric when any tracked metric
// regressed past regressPct.
func Gate(w io.Writer, baseline, current *Run, regressPct float64) error {
	fmt.Fprintf(w, "regression gate: run vs baseline %s (git %s, %d benchmarks), threshold +%g%%\n",
		baseline.Timestamp, orNone(baseline.GitSHA), len(baseline.Benchmarks), regressPct)
	regs := Compare(baseline, current, regressPct)
	var names []string
	for _, r := range regs {
		switch {
		case r.New:
			// Informational: an added benchmark is not a regression, but
			// it is untracked coverage until the baseline is refreshed.
			fmt.Fprintf(w, "  NEW        %s\n", r)
		case r.Missing:
			fmt.Fprintf(w, "  REGRESSED  %s\n", r)
			names = append(names, r.Benchmark+" (missing)")
		default:
			fmt.Fprintf(w, "  REGRESSED  %s\n", r)
			names = append(names, r.Benchmark+" "+r.Metric)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(w, "  ok: no tracked metric regressed more than %g%%\n", regressPct)
		return nil
	}
	return fmt.Errorf("benchstore: %d regression(s) past %g%%: %s",
		len(names), regressPct, strings.Join(names, ", "))
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
