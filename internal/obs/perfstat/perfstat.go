// Package perfstat measures what the simulator itself costs the host —
// the measurement layer the hot-path throughput campaign gates on. The
// rest of the repo measures *simulated* cycles and miss rates; perfstat
// attributes *host* resources to the same phase structure: per-phase
// wall time, Go heap allocation deltas (runtime.ReadMemStats), GC pause
// totals and GC cycles (runtime/metrics), goroutine counts, and an
// events/sec throughput figure derived from the simulated event counts
// each phase processed.
//
// The unit of measurement is a Scope: Begin samples the runtime, the
// bracketed work runs, End samples again and folds the deltas into the
// per-phase aggregate. Scopes may nest (a "profile" scope inside a
// "suite" scope) and overlap across goroutines; wall time is accumulated
// per scope, so a phase's wall under a parallel harness is job-time, not
// elapsed time, and allocation deltas are process-global over the
// scope's lifetime — exact for serial phases, an upper bound when jobs
// overlap. The sampler also accounts for its own cost (the time spent
// inside Begin/End), so its overhead is a measured number, not a claim.
//
// Everything is nil-safe in the obs tradition: a nil *Collector hands
// out nil scopes and every method on either no-ops, so instrumented code
// never branches on "perfstat enabled". Samples never feed report
// output; attaching a collector cannot change a reported result.
package perfstat

import (
	"fmt"
	"io"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"prefix/internal/obs"
)

// runtime/metrics keys sampled at each probe, supplementing the
// ReadMemStats snapshot.
const (
	gcCyclesMetric   = "/gc/cycles/total:gc-cycles"
	goroutinesMetric = "/sched/goroutines:goroutines"
)

// wallClock is the package's one sanctioned wall-clock source, matching
// the obs convention: every collector defaults to it and exposes
// SetClock so tests are deterministic.
func wallClock() time.Time {
	//lint:ignore nodeterminism host-cost wall time is genuinely wall-clock; it never feeds report output and tests swap the clock via SetClock
	return time.Now()
}

// Probe is one point-in-time runtime reading. All cumulative fields are
// monotone process totals; Scope deltas subtract two probes.
type Probe struct {
	Mallocs      uint64 // cumulative heap objects allocated
	AllocBytes   uint64 // cumulative bytes allocated
	GCPauseNanos uint64 // cumulative stop-the-world pause time
	GCCycles     uint64 // completed GC cycles
	Goroutines   int    // current goroutine count
}

// readProbe samples the live runtime: ReadMemStats for the allocation
// and pause totals, runtime/metrics for GC cycles and goroutines (with
// MemStats/NumGoroutine fallbacks when a key is unsupported).
func readProbe(buf []runtimemetrics.Sample) Probe {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p := Probe{
		Mallocs:      ms.Mallocs,
		AllocBytes:   ms.TotalAlloc,
		GCPauseNanos: ms.PauseTotalNs,
		GCCycles:     uint64(ms.NumGC),
		Goroutines:   runtime.NumGoroutine(),
	}
	runtimemetrics.Read(buf)
	if buf[0].Value.Kind() == runtimemetrics.KindUint64 {
		p.GCCycles = buf[0].Value.Uint64()
	}
	if buf[1].Value.Kind() == runtimemetrics.KindUint64 {
		p.Goroutines = int(buf[1].Value.Uint64())
	}
	return p
}

// Collector aggregates host-cost samples per phase and publishes them
// into an obs.Registry as the prefix_perf_* series. All methods are safe
// for concurrent use and nil-safe.
type Collector struct {
	mu    sync.Mutex
	now   func() time.Time
	probe func() Probe
	rmBuf []runtimemetrics.Sample
	reg   *obs.Registry

	phases     map[string]*PhaseStats
	order      []string
	firstBegin time.Time
	lastEnd    time.Time
	open       int
	selfNanos  int64
}

// New returns a collector publishing into reg (nil: aggregate only).
func New(reg *obs.Registry) *Collector {
	c := &Collector{
		now:    wallClock,
		reg:    reg,
		rmBuf:  []runtimemetrics.Sample{{Name: gcCyclesMetric}, {Name: goroutinesMetric}},
		phases: make(map[string]*PhaseStats),
	}
	c.probe = func() Probe { return readProbe(c.rmBuf) }
	return c
}

// SetClock replaces the collector's time source (deterministic tests).
func (c *Collector) SetClock(now func() time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
}

// Now reads the collector's clock: the wall clock unless SetClock
// replaced it. It times work of a phase that runs interleaved with
// another phase's, in intervals too short for a Scope each; the summed
// time is credited with Scope.AddWall. A nil collector returns the zero
// time.
func (c *Collector) Now() time.Time {
	if c == nil {
		return time.Time{}
	}
	c.mu.Lock()
	now := c.now
	c.mu.Unlock()
	return now()
}

// SetProbe replaces the runtime reader (deterministic tests).
func (c *Collector) SetProbe(probe func() Probe) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.probe = probe
}

// Scope is one bracketed region of work. Created by Begin, finished by
// End; AddEvents credits it with simulated events for the events/sec
// figure, AttachSpan routes the measured deltas into the span tree as
// host_* annotations.
type Scope struct {
	c      *Collector
	phase  string
	span   *obs.Span
	start  time.Time
	begin  Probe
	events uint64
	extra  time.Duration // wall time credited by AddWall
	done   bool
}

// Begin opens a scope for the named phase, sampling the runtime. The
// scope's wall clock starts after the sample, so sampler cost is not
// attributed to the phase. Nil-safe: a nil collector returns a nil
// scope.
func (c *Collector) Begin(phase string) *Scope {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	t0 := c.now()
	p := c.probe()
	t1 := c.now()
	c.selfNanos += t1.Sub(t0).Nanoseconds()
	if c.firstBegin.IsZero() {
		c.firstBegin = t1
	}
	c.open++
	c.mu.Unlock()
	return &Scope{c: c, phase: phase, start: t1, begin: p}
}

// AttachSpan routes the scope's measured deltas into sp as host_*
// annotations at End. Returns the scope for chaining. Nil-safe.
func (s *Scope) AttachSpan(sp *obs.Span) *Scope {
	if s != nil {
		s.span = sp
	}
	return s
}

// AddEvents credits the scope with n simulated events (recorder events
// processed, machine events evaluated); End divides by wall time for the
// events/sec figure. Nil-safe.
func (s *Scope) AddEvents(n uint64) {
	if s != nil {
		s.events += n
	}
}

// AddWall credits the scope with d of wall time measured outside it
// (with Collector.Now): the phase's own work that ran interleaved with
// another phase. End adds it to the sample's wall time; allocation and
// GC deltas still cover only the scope's own lifetime. Nil-safe.
func (s *Scope) AddWall(d time.Duration) {
	if s != nil {
		s.extra += d
	}
}

// Sample is one finished scope's measured host cost.
type Sample struct {
	Phase        string `json:"phase"`
	WallNanos    int64  `json:"wall_nanos"`
	Events       uint64 `json:"events"`
	Allocs       uint64 `json:"allocs"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	GCPauseNanos uint64 `json:"gc_pause_nanos"`
	GCCycles     uint64 `json:"gc_cycles"`
	Goroutines   int    `json:"goroutines"`
}

// EventsPerSec is the sample's throughput figure (0 when wall is 0).
func (s Sample) EventsPerSec() float64 {
	if s.WallNanos <= 0 {
		return 0
	}
	return float64(s.Events) / (float64(s.WallNanos) / 1e9)
}

// End closes the scope: samples the runtime again, folds the deltas into
// the phase aggregate, publishes the prefix_perf_* series, annotates the
// attached span, and returns the sample. Ending twice returns the zero
// sample. Nil-safe.
func (s *Scope) End() Sample {
	if s == nil || s.done {
		return Sample{}
	}
	s.done = true
	c := s.c
	c.mu.Lock()
	t0 := c.now()
	p := c.probe()
	t1 := c.now()
	c.selfNanos += t1.Sub(t0).Nanoseconds()
	c.open--
	if t0.After(c.lastEnd) {
		c.lastEnd = t0
	}
	sample := Sample{
		Phase:        s.phase,
		WallNanos:    (t0.Sub(s.start) + s.extra).Nanoseconds(),
		Events:       s.events,
		Allocs:       p.Mallocs - s.begin.Mallocs,
		AllocBytes:   p.AllocBytes - s.begin.AllocBytes,
		GCPauseNanos: p.GCPauseNanos - s.begin.GCPauseNanos,
		GCCycles:     p.GCCycles - s.begin.GCCycles,
		Goroutines:   maxInt(s.begin.Goroutines, p.Goroutines),
	}
	ph, ok := c.phases[s.phase]
	if !ok {
		ph = &PhaseStats{Phase: s.phase}
		c.phases[s.phase] = ph
		c.order = append(c.order, s.phase)
	}
	ph.fold(sample)
	phTotal := *ph
	c.mu.Unlock()

	s.publish(sample, phTotal)
	if sp := s.span; sp != nil {
		sp.Set("host_wall_nanos", sample.WallNanos)
		sp.Set("host_allocs", sample.Allocs)
		sp.Set("host_alloc_bytes", sample.AllocBytes)
		sp.Set("host_gc_pause_nanos", sample.GCPauseNanos)
		if sample.Events > 0 {
			sp.Set("host_events", sample.Events)
			sp.Set("host_events_per_sec", sample.EventsPerSec())
		}
	}
	return sample
}

// publish exports the scope's deltas and its phase's cumulative
// throughput into the registry (nil registry: no-op).
func (s *Scope) publish(sample Sample, ph PhaseStats) {
	reg := s.c.reg
	if reg == nil {
		return
	}
	kv := []string{"phase", s.phase}
	reg.Counter("prefix_perf_scopes_total", kv...).Inc()
	reg.Counter("prefix_perf_wall_nanos_total", kv...).Add(uint64(sample.WallNanos))
	reg.Counter("prefix_perf_events_total", kv...).Add(sample.Events)
	reg.Counter("prefix_perf_allocs_total", kv...).Add(sample.Allocs)
	reg.Counter("prefix_perf_alloc_bytes_total", kv...).Add(sample.AllocBytes)
	reg.Counter("prefix_perf_gc_pause_nanos_total", kv...).Add(sample.GCPauseNanos)
	reg.Counter("prefix_perf_gc_cycles_total", kv...).Add(sample.GCCycles)
	reg.Gauge("prefix_perf_events_per_sec", kv...).Set(ph.EventsPerSec())
	reg.Gauge("prefix_perf_goroutines", kv...).Set(float64(sample.Goroutines))
}

// PhaseStats is one phase's aggregate over every finished scope.
type PhaseStats struct {
	Phase        string `json:"phase"`
	Scopes       int    `json:"scopes"`
	WallNanos    int64  `json:"wall_nanos"`
	Events       uint64 `json:"events"`
	Allocs       uint64 `json:"allocs"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	GCPauseNanos uint64 `json:"gc_pause_nanos"`
	GCCycles     uint64 `json:"gc_cycles"`
	// MaxGoroutines is the largest goroutine count observed at any of the
	// phase's probe points.
	MaxGoroutines int `json:"max_goroutines"`
	// EventsPerSecond is Events over accumulated scope wall time. The
	// field is materialized (not just a method) so the /perf JSON carries
	// it without client-side arithmetic.
	EventsPerSecond float64 `json:"events_per_sec"`
}

func (p *PhaseStats) fold(s Sample) {
	p.Scopes++
	p.WallNanos += s.WallNanos
	p.Events += s.Events
	p.Allocs += s.Allocs
	p.AllocBytes += s.AllocBytes
	p.GCPauseNanos += s.GCPauseNanos
	p.GCCycles += s.GCCycles
	if s.Goroutines > p.MaxGoroutines {
		p.MaxGoroutines = s.Goroutines
	}
	p.EventsPerSecond = p.EventsPerSec()
}

// EventsPerSec is the phase's cumulative throughput (0 when wall is 0).
func (p PhaseStats) EventsPerSec() float64 {
	if p.WallNanos <= 0 {
		return 0
	}
	return float64(p.Events) / (float64(p.WallNanos) / 1e9)
}

// Snapshot is the collector's full live view: overall throughput,
// cumulative GC cost, per-phase attribution, and the sampler's own
// measured overhead — the /perf document and the -v table's source.
type Snapshot struct {
	// ElapsedNanos spans the first Begin to the last End (or to now while
	// scopes are open); ThroughputEventsPerSec is total events over it.
	ElapsedNanos           int64   `json:"elapsed_nanos"`
	Events                 uint64  `json:"events"`
	ThroughputEventsPerSec float64 `json:"throughput_events_per_sec"`
	Allocs                 uint64  `json:"allocs"`
	AllocBytes             uint64  `json:"alloc_bytes"`
	GCPauseNanos           uint64  `json:"gc_pause_nanos"`
	GCCycles               uint64  `json:"gc_cycles"`
	// OverheadNanos is the time spent inside the sampler itself (probe
	// reads in Begin/End) — the measured cost of measuring.
	OverheadNanos int64        `json:"sampler_overhead_nanos"`
	Phases        []PhaseStats `json:"phases"`
}

// Snapshot renders the current state. Zero value on nil.
func (c *Collector) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := Snapshot{OverheadNanos: c.selfNanos}
	if !c.firstBegin.IsZero() {
		end := c.lastEnd
		if c.open > 0 || end.IsZero() {
			end = c.now()
		}
		snap.ElapsedNanos = end.Sub(c.firstBegin).Nanoseconds()
	}
	for _, name := range c.order {
		p := *c.phases[name]
		snap.Phases = append(snap.Phases, p)
		snap.Events += p.Events
		snap.Allocs += p.Allocs
		snap.AllocBytes += p.AllocBytes
		snap.GCPauseNanos += p.GCPauseNanos
		if p.GCCycles > snap.GCCycles {
			// Phases overlap and nest; cumulative GC cycles are not
			// additive across them, so report the largest phase delta.
			snap.GCCycles = p.GCCycles
		}
	}
	if snap.ElapsedNanos > 0 {
		snap.ThroughputEventsPerSec = float64(snap.Events) / (float64(snap.ElapsedNanos) / 1e9)
	}
	return snap
}

// Overhead returns the accumulated sampler self-time. Zero on nil.
func (c *Collector) Overhead() time.Duration {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.selfNanos)
}

// WriteTable prints the per-phase host-cost table (the -v summary
// extension): wall, events, events/sec, allocation and GC attribution.
// Phases print in first-Begin order with a trailing totals row. A
// collector with no finished scopes prints nothing. Nil-safe.
func (c *Collector) WriteTable(w io.Writer) error {
	snap := c.Snapshot()
	if len(snap.Phases) == 0 {
		return nil
	}
	fmt.Fprintln(w, "host cost:")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  phase\tscopes\twall\tevents\tevents/sec\tallocs\talloc bytes\tgc pause\tmax g")
	row := func(name string, p PhaseStats) {
		fmt.Fprintf(tw, "  %s\t%d\t%s\t%d\t%s\t%d\t%d\t%s\t%d\n",
			name, p.Scopes, time.Duration(p.WallNanos).Round(time.Microsecond),
			p.Events, formatRate(p.EventsPerSec()), p.Allocs, p.AllocBytes,
			time.Duration(p.GCPauseNanos).Round(time.Microsecond), p.MaxGoroutines)
	}
	for _, p := range snap.Phases {
		row(p.Phase, p)
	}
	fmt.Fprintf(tw, "  total\t\t%s\t%d\t%s\t%d\t%d\t%s\t\n",
		time.Duration(snap.ElapsedNanos).Round(time.Microsecond), snap.Events,
		formatRate(snap.ThroughputEventsPerSec), snap.Allocs, snap.AllocBytes,
		time.Duration(snap.GCPauseNanos).Round(time.Microsecond))
	if err := tw.Flush(); err != nil {
		return err
	}
	pct := 0.0
	if snap.ElapsedNanos > 0 {
		pct = 100 * float64(snap.OverheadNanos) / float64(snap.ElapsedNanos)
	}
	_, err := fmt.Fprintf(w, "  sampler overhead: %s (%.3f%% of elapsed)\n",
		time.Duration(snap.OverheadNanos).Round(time.Microsecond), pct)
	return err
}

// formatRate renders events/sec compactly (12.3M/s style).
func formatRate(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG/s", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM/s", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk/s", v/1e3)
	default:
		return fmt.Sprintf("%.1f/s", v)
	}
}

// SortedPhases returns the snapshot's phases sorted by descending wall
// time — the "where does the time go" ordering for dashboards that
// prefer cost order over execution order.
func (s Snapshot) SortedPhases() []PhaseStats {
	out := append([]PhaseStats(nil), s.Phases...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].WallNanos > out[j].WallNanos })
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
