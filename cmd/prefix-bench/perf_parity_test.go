package main

import (
	"bytes"
	"testing"
	"time"

	"prefix/internal/obs/perfstat"
	"prefix/internal/pipeline"
	"prefix/internal/report"
)

// maxProbeCost bounds the sampler's mean self-time per probe. Each probe
// calls runtime.ReadMemStats, a stop-the-world whose cost depends on the
// host's load, not on how fast the suite is: 44–390 µs per probe with the
// test run alone and 1.3–2.1 ms under a loaded `go test ./...` (2-core
// linux/amd64), so the bound leaves room for that load and still catches
// a sampler that does real work per probe.
const maxProbeCost = 5 * time.Millisecond

// TestPerfParityAndOverhead is the perfstat overhead contract: attaching
// a host-cost collector to the smoke suite must leave the rendered
// report byte-identical, and the collector's own sampling cost must stay
// under maxProbeCost per probe.
func TestPerfParityAndOverhead(t *testing.T) {
	names := []string{"mcf", "health"}
	run := func(pc *perfstat.Collector) string {
		opt := pipeline.DefaultOptions()
		opt.UseBenchScale = true
		opt.Perf = pc
		cmps, err := pipeline.RunSuite(names, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.Table3(&buf, cmps); err != nil {
			t.Fatal(err)
		}
		if err := report.Table5(&buf, cmps); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}

	plain := run(nil)
	pc := perfstat.New(nil)
	instrumented := run(pc)
	if plain != instrumented {
		t.Errorf("report changed when the perfstat collector was attached:\n--- without ---\n%s\n--- with ---\n%s",
			plain, instrumented)
	}
	snap := pc.Snapshot()
	if snap.Events == 0 {
		t.Error("collector observed no events during the instrumented run")
	}
	// Every scope here is ended, and each probes twice (Begin and End).
	probes := 0
	for _, ph := range snap.Phases {
		probes += 2 * ph.Scopes
	}
	if probes == 0 {
		t.Fatal("collector finished no scopes")
	}
	if ov := pc.Overhead(); ov > time.Duration(probes)*maxProbeCost {
		t.Errorf("sampler overhead %v over %d probes exceeds %v per probe", ov, probes, maxProbeCost)
	}
}
