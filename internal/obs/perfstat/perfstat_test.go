package perfstat

import (
	"strings"
	"testing"
	"time"

	"prefix/internal/obs"
)

// testClock steps a fixed amount on every reading, so wall times and
// sampler self-times are exact, deterministic values.
type testClock struct {
	t    time.Time
	step time.Duration
}

func (c *testClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

// probeSeq replays a fixed sequence of probes, then repeats the last.
type probeSeq struct {
	probes []Probe
	i      int
}

func (p *probeSeq) next() Probe {
	if p.i >= len(p.probes) {
		return p.probes[len(p.probes)-1]
	}
	out := p.probes[p.i]
	p.i++
	return out
}

func newTestCollector(reg *obs.Registry, step time.Duration, probes ...Probe) *Collector {
	c := New(reg)
	clk := &testClock{t: time.Unix(0, 0), step: step}
	c.SetClock(clk.now)
	if len(probes) > 0 {
		seq := &probeSeq{probes: probes}
		c.SetProbe(seq.next)
	}
	return c
}

func TestScopeDeltas(t *testing.T) {
	// Clock steps 1ms per reading. Begin reads now,probe,now; End reads
	// now,probe,now. Scope wall = End's first reading - Begin's last
	// reading = 2ms (one step inside the scope body per probe read, plus
	// the step to End's t0... with step=1ms: Begin t0=1ms, t1=2ms
	// (start); End t0=3ms → wall = 1ms).
	c := newTestCollector(nil, time.Millisecond,
		Probe{Mallocs: 100, AllocBytes: 1000, GCPauseNanos: 10, GCCycles: 1, Goroutines: 2},
		Probe{Mallocs: 150, AllocBytes: 1600, GCPauseNanos: 30, GCCycles: 3, Goroutines: 5},
	)
	sc := c.Begin("suite")
	sc.AddEvents(2_000_000)
	sample := sc.End()

	if sample.Phase != "suite" {
		t.Fatalf("phase = %q", sample.Phase)
	}
	if sample.WallNanos != int64(time.Millisecond) {
		t.Errorf("wall = %d, want %d", sample.WallNanos, time.Millisecond)
	}
	if sample.Allocs != 50 || sample.AllocBytes != 600 {
		t.Errorf("allocs = %d/%d, want 50/600", sample.Allocs, sample.AllocBytes)
	}
	if sample.GCPauseNanos != 20 || sample.GCCycles != 2 {
		t.Errorf("gc = %d pause / %d cycles, want 20/2", sample.GCPauseNanos, sample.GCCycles)
	}
	if sample.Goroutines != 5 {
		t.Errorf("goroutines = %d, want 5 (max of probe points)", sample.Goroutines)
	}
	if sample.Events != 2_000_000 {
		t.Errorf("events = %d", sample.Events)
	}
	// 2e6 events over 1ms = 2e9 events/sec.
	if got := sample.EventsPerSec(); got != 2e9 {
		t.Errorf("events/sec = %g, want 2e9", got)
	}
}

// TestAddWall: time measured with Collector.Now outside a scope and
// credited with AddWall lands in the sample's wall time and events/sec,
// and in the phase aggregate.
func TestAddWall(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	// Two readings 1ms apart, the way an interleaved piece of work is
	// timed.
	t0 := c.Now()
	feed := c.Now().Sub(t0)
	sc := c.Begin("analyze")
	sc.AddEvents(4_000_000)
	sc.AddWall(feed)
	sample := sc.End()
	// 1ms inside the scope (see TestScopeDeltas) plus 1ms credited.
	if want := int64(2 * time.Millisecond); sample.WallNanos != want {
		t.Errorf("wall = %d, want %d", sample.WallNanos, want)
	}
	if got := sample.EventsPerSec(); got != 2e9 {
		t.Errorf("events/sec = %g, want 2e9", got)
	}
	if ph := c.Snapshot().Phases[0]; ph.WallNanos != sample.WallNanos {
		t.Errorf("phase wall = %d, want %d", ph.WallNanos, sample.WallNanos)
	}
}

func TestPhaseAggregationAndSnapshot(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	for i := 0; i < 3; i++ {
		sc := c.Begin("suite")
		sc.AddEvents(1000)
		sc.End()
	}
	sc := c.Begin("variance")
	sc.AddEvents(500)
	sc.End()

	snap := c.Snapshot()
	if len(snap.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(snap.Phases))
	}
	// First-Begin order: suite before variance.
	if snap.Phases[0].Phase != "suite" || snap.Phases[1].Phase != "variance" {
		t.Errorf("phase order = %q, %q", snap.Phases[0].Phase, snap.Phases[1].Phase)
	}
	suite := snap.Phases[0]
	if suite.Scopes != 3 || suite.Events != 3000 {
		t.Errorf("suite scopes/events = %d/%d, want 3/3000", suite.Scopes, suite.Events)
	}
	if suite.WallNanos != 3*int64(time.Millisecond) {
		t.Errorf("suite wall = %d, want 3ms", suite.WallNanos)
	}
	if suite.EventsPerSecond != suite.EventsPerSec() {
		t.Errorf("materialized events/sec %g != computed %g", suite.EventsPerSecond, suite.EventsPerSec())
	}
	if snap.Events != 3500 {
		t.Errorf("snapshot events = %d, want 3500", snap.Events)
	}
	if snap.ElapsedNanos <= 0 || snap.ThroughputEventsPerSec <= 0 {
		t.Errorf("elapsed/throughput = %d/%g, want positive", snap.ElapsedNanos, snap.ThroughputEventsPerSec)
	}
	// Sampler self-time: each Begin/End pair spends 2 clock steps inside
	// probe reads (t0→t1 in Begin, t1→t2 in End) = 2ms per scope.
	if want := int64(4 * 2 * time.Millisecond); snap.OverheadNanos != want {
		t.Errorf("overhead = %d, want %d", snap.OverheadNanos, want)
	}
}

func TestSortedPhases(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	c.Begin("fast").End()
	sc := c.Begin("slow")
	// Extra clock reads make "slow" accumulate more wall via more scopes.
	sc.End()
	c.Begin("slow").End()
	sorted := c.Snapshot().SortedPhases()
	if sorted[0].Phase != "slow" {
		t.Errorf("sorted[0] = %q, want slow", sorted[0].Phase)
	}
}

func TestNilSafety(t *testing.T) {
	var c *Collector
	c.SetClock(nil)
	c.SetProbe(nil)
	sc := c.Begin("x")
	if sc != nil {
		t.Fatalf("nil collector Begin = %v, want nil scope", sc)
	}
	sc.AddEvents(10)
	sc.AddWall(time.Second)
	sc.AttachSpan(nil)
	if !c.Now().IsZero() {
		t.Error("nil collector Now is not the zero time")
	}
	if s := sc.End(); s != (Sample{}) {
		t.Errorf("nil scope End = %+v, want zero", s)
	}
	if snap := c.Snapshot(); len(snap.Phases) != 0 || snap.Events != 0 {
		t.Errorf("nil collector Snapshot = %+v, want zero", snap)
	}
	if c.Overhead() != 0 {
		t.Errorf("nil collector Overhead != 0")
	}
	var sb strings.Builder
	if err := c.WriteTable(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil collector WriteTable wrote %q, err %v", sb.String(), err)
	}
}

func TestDoubleEnd(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	sc := c.Begin("x")
	sc.End()
	if s := sc.End(); s != (Sample{}) {
		t.Errorf("second End = %+v, want zero", s)
	}
	if got := c.Snapshot().Phases[0].Scopes; got != 1 {
		t.Errorf("scopes = %d after double End, want 1", got)
	}
}

func TestRegistryPublishing(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCollector(reg, time.Millisecond,
		Probe{},
		Probe{Mallocs: 7, AllocBytes: 70, GCPauseNanos: 5, GCCycles: 1, Goroutines: 3},
	)
	sc := c.Begin("suite")
	sc.AddEvents(4000)
	sc.End()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`prefix_perf_scopes_total{phase="suite"} 1`,
		`prefix_perf_wall_nanos_total{phase="suite"} 1000000`,
		`prefix_perf_events_total{phase="suite"} 4000`,
		`prefix_perf_allocs_total{phase="suite"} 7`,
		`prefix_perf_alloc_bytes_total{phase="suite"} 70`,
		`prefix_perf_gc_pause_nanos_total{phase="suite"} 5`,
		`prefix_perf_gc_cycles_total{phase="suite"} 1`,
		`prefix_perf_events_per_sec{phase="suite"}`,
		`prefix_perf_goroutines{phase="suite"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics export missing %q\n%s", want, out)
		}
	}
}

func TestSpanAnnotation(t *testing.T) {
	tr := obs.NewTracer()
	c := newTestCollector(nil, time.Millisecond,
		Probe{},
		Probe{Mallocs: 3, AllocBytes: 30, GCPauseNanos: 2},
	)
	span := tr.Start("benchmark mcf")
	sc := c.Begin("suite").AttachSpan(span)
	sc.AddEvents(100)
	sc.End()
	span.End()

	keys, values := span.Args()
	got := make(map[string]any, len(keys))
	for i, k := range keys {
		got[k] = values[i]
	}
	if got["host_wall_nanos"] != int64(time.Millisecond) {
		t.Errorf("host_wall_nanos = %v", got["host_wall_nanos"])
	}
	if got["host_allocs"] != uint64(3) || got["host_alloc_bytes"] != uint64(30) {
		t.Errorf("host allocs = %v/%v", got["host_allocs"], got["host_alloc_bytes"])
	}
	if got["host_gc_pause_nanos"] != uint64(2) {
		t.Errorf("host_gc_pause_nanos = %v", got["host_gc_pause_nanos"])
	}
	if got["host_events"] != uint64(100) {
		t.Errorf("host_events = %v", got["host_events"])
	}
	if _, ok := got["host_events_per_sec"]; !ok {
		t.Errorf("host_events_per_sec missing")
	}
}

func TestWriteTable(t *testing.T) {
	c := newTestCollector(nil, time.Millisecond, Probe{})
	sc := c.Begin("suite")
	sc.AddEvents(5000)
	sc.End()

	var sb strings.Builder
	if err := c.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"host cost:", "phase", "events/sec", "suite", "total", "sampler overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestLiveProbe(t *testing.T) {
	// No injected probe: exercise the real runtime reader end to end.
	c := New(nil)
	sc := c.Begin("live")
	// Allocate something observable.
	buf := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		buf = append(buf, make([]byte, 1024))
	}
	_ = buf
	sample := sc.End()
	if sample.WallNanos <= 0 {
		t.Errorf("live wall = %d, want > 0", sample.WallNanos)
	}
	if sample.AllocBytes == 0 {
		t.Errorf("live alloc bytes = 0, want > 0 after allocating ~1MB")
	}
	if sample.Goroutines <= 0 {
		t.Errorf("live goroutines = %d, want > 0", sample.Goroutines)
	}
}

func TestEventsPerSecZeroWall(t *testing.T) {
	s := Sample{Events: 100}
	if got := s.EventsPerSec(); got != 0 {
		t.Errorf("zero-wall events/sec = %g, want 0 (no +Inf in JSON)", got)
	}
}

func TestConcurrentScopes(t *testing.T) {
	// Overlapping scopes from multiple goroutines must be race-free and
	// all fold into the aggregate (run under -race in make check).
	c := New(obs.NewRegistry())
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for j := 0; j < 50; j++ {
				sc := c.Begin("par")
				sc.AddEvents(10)
				sc.End()
			}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	snap := c.Snapshot()
	if snap.Phases[0].Scopes != 400 || snap.Phases[0].Events != 4000 {
		t.Errorf("scopes/events = %d/%d, want 400/4000", snap.Phases[0].Scopes, snap.Phases[0].Events)
	}
}
