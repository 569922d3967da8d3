package pipeline

import (
	"reflect"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/machine"
	"prefix/internal/obs/perfstat"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// TestFusedAnalysisMatchesRecorded: analyzing the profile as it is
// recorded (the analyzer as the machine's recorder, with and without the
// host-cost timer in between) yields exactly the analysis of the
// recorded trace, on every benchmark's profiling input and on the
// 4-thread group profile of every multithreaded benchmark.
func TestFusedAnalysisMatchesRecorded(t *testing.T) {
	opt := fastOpt()
	timed := opt
	timed.Perf = perfstat.New(nil)
	for _, name := range workloads.Names() {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		m := machine.New(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, machine.WithRecorder(rec))
		spec.Program.Run(m, spec.Profile)
		m.Finish()
		want := trace.Analyze(rec.Trace())
		for _, o := range []Options{opt, timed} {
			got, _, stats, _ := profileRun(spec, o, nil)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (perf %v): fused profile analysis differs from the recorded trace's", name, o.Perf != nil)
			}
			if stats.Events != uint64(len(rec.Trace().Events)) {
				t.Errorf("%s: analyzer counted %d events, recorder %d", name, stats.Events, len(rec.Trace().Events))
			}
		}

		mt, ok := spec.Program.(workloads.MultiThreaded)
		if !ok {
			continue
		}
		const threads = 4
		groupRun := func(r trace.EventRecorder) {
			g := machine.NewGroup(baselines.NewBaseline(opt.Cache.Cost), opt.Cache, threads, r)
			cfg := spec.Profile
			cfg.Threads = threads
			runGroup(mt, g, cfg, threads)
			g.Finish()
		}
		rec, an := trace.NewRecorder(), trace.NewAnalyzer()
		groupRun(rec)
		groupRun(an)
		if !reflect.DeepEqual(an.Finish(), trace.Analyze(rec.Trace())) {
			t.Errorf("%s: fused %d-thread group analysis differs from the recorded trace's", name, threads)
		}
	}
}
