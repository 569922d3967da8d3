package pipeline

import (
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/obs/perfstat"
	"prefix/internal/workloads"
)

// TestPerfSmoke is the host-cost end-to-end smoke: a parallel suite run
// with a perfstat collector attached must attribute wall time, heap
// cost, and events/sec to every job, and the collector's totals must
// line up with the per-benchmark samples.
func TestPerfSmoke(t *testing.T) {
	pc := perfstat.New(nil)
	opt := fastOpt()
	opt.Perf = pc
	names := []string{"mcf", "health"}
	cmps, err := RunSuite(names, opt, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cmp := range cmps {
		h := cmp.Host
		if h == nil {
			t.Fatalf("%s: Comparison.Host is nil with a collector attached", names[i])
		}
		if h.Phase != "suite" {
			t.Errorf("%s: host sample phase = %q, want \"suite\"", names[i], h.Phase)
		}
		if h.WallNanos <= 0 {
			t.Errorf("%s: host wall = %d ns, want > 0", names[i], h.WallNanos)
		}
		if h.Events == 0 {
			t.Errorf("%s: host events = 0, want the run's simulation event count", names[i])
		}
		if h.EventsPerSec() <= 0 {
			t.Errorf("%s: events/sec = %g, want > 0", names[i], h.EventsPerSec())
		}
	}

	snap := pc.Snapshot()
	if snap.Events == 0 || snap.ThroughputEventsPerSec <= 0 {
		t.Errorf("snapshot events=%d throughput=%g, want both > 0",
			snap.Events, snap.ThroughputEventsPerSec)
	}
	phases := map[string]perfstat.PhaseStats{}
	for _, p := range snap.Phases {
		phases[p.Phase] = p
	}
	for _, phase := range []string{"suite", "profile"} {
		p, ok := phases[phase]
		if !ok {
			t.Fatalf("snapshot missing phase %q (have %v)", phase, snap.Phases)
		}
		if p.Scopes != len(names) {
			t.Errorf("phase %q scopes = %d, want %d (one per benchmark)", phase, p.Scopes, len(names))
		}
		if p.WallNanos <= 0 || p.Events == 0 {
			t.Errorf("phase %q wall=%d events=%d, want both > 0", phase, p.WallNanos, p.Events)
		}
	}
}

// TestPerfScaleMonotone pins that host-cost attribution actually tracks
// the work done: running the same workload at 4x the scale must produce
// more simulation events (exact — the simulation is deterministic) and
// more wall time (retried — host timing is noisy at smoke scale).
func TestPerfScaleMonotone(t *testing.T) {
	spec, err := workloads.Get("mcf")
	if err != nil {
		t.Fatal(err)
	}
	opt := fastOpt()
	runScaled := func(pc *perfstat.Collector, phase string, scale float64) perfstat.Sample {
		cfg := spec.Profile
		cfg.Scale = scale
		sc := pc.Begin(phase)
		m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache)
		spec.Program.Run(m, cfg)
		sc.AddEvents(m.Finish().Events())
		return sc.End()
	}

	pc := perfstat.New(nil)
	small := runScaled(pc, "scale_small", spec.Profile.Scale)
	big := runScaled(pc, "scale_big", spec.Profile.Scale*4)
	if big.Events <= small.Events {
		t.Fatalf("events not monotone with scale: small=%d big=%d", small.Events, big.Events)
	}

	// Wall time is host-dependent; allow a few retries before declaring
	// the attribution broken.
	for attempt := 0; ; attempt++ {
		if big.WallNanos > small.WallNanos {
			break
		}
		if attempt >= 4 {
			t.Fatalf("wall time not monotone with scale after %d attempts: small=%dns big=%dns",
				attempt, small.WallNanos, big.WallNanos)
		}
		small = runScaled(pc, "scale_small", spec.Profile.Scale)
		big = runScaled(pc, "scale_big", spec.Profile.Scale*4)
	}
}

// TestProfileAnalysisHostSample: with a perfstat collector attached,
// both profile paths (in-memory and streamed) carry the analyze stage's
// own host sample over the trace's events; without one it stays nil.
func TestProfileAnalysisHostSample(t *testing.T) {
	spec, err := workloads.Get("swissmap")
	if err != nil {
		t.Fatal(err)
	}
	for _, stream := range []bool{false, true} {
		opt := fastOpt()
		opt.Stream = stream
		opt.StreamDir = t.TempDir()
		prof, err := CollectProfile(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if prof.AnalysisHost != nil {
			t.Errorf("stream=%v: AnalysisHost recorded without a collector", stream)
		}
		opt.Perf = perfstat.New(nil)
		prof, err = CollectProfile(spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		h := prof.AnalysisHost
		if h == nil {
			t.Fatalf("stream=%v: AnalysisHost not recorded with Perf attached", stream)
		}
		if h.Phase != "analyze" || h.Events != prof.Stats.Events || h.Events == 0 {
			t.Errorf("stream=%v: analysis sample = %+v, want phase analyze over %d events", stream, h, prof.Stats.Events)
		}
	}
}
