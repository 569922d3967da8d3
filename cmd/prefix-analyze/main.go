// Command prefix-analyze consumes a trace written by prefix-trace, runs
// the full profile analysis (hot objects, hot data streams, Algorithm 1
// reconstitution, context inference with counter sharing) and writes the
// resulting PreFix plan as JSON.
//
// Usage:
//
//	prefix-analyze -trace mcf.trace -o mcf.plan.json
//	prefix-analyze -trace mcf.trace -variant hds -miner sequitur -v
//	prefix-analyze -trace mcf.trace -stream -o mcf.plan.json
//	prefix-analyze -trace mcf.trace -ledger mcf.ledger.json  # record every decision
//	prefix-analyze -trace mcf.trace -trace-out phases.json -metrics-out plan.prom
//
// Both trace formats are accepted (the classic header-counted file and
// the chunked stream prefix-trace -stream writes). With -stream the
// analysis runs off the file without materializing the event slice, so
// traces far larger than memory are fine.
package main

import (
	"flag"
	"fmt"
	"os"

	"prefix/internal/obsflags"
	core "prefix/internal/prefix"
	"prefix/internal/report"
	"prefix/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "prefix-analyze:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		in      = flag.String("trace", "", "input trace file (required)")
		out     = flag.String("o", "", "output plan JSON (default: stdout)")
		bench   = flag.String("bench", "unknown", "benchmark name recorded in the plan")
		variant = flag.String("variant", "hds+hot", "placement variant: hot, hds, hds+hot")
		miner   = flag.String("miner", "lcs", "hot-data-stream miner: lcs or sequitur")
		summary = flag.Bool("summary", false, "print the analysis summary (OHDS/RHDS) to stderr")
		stream  = flag.Bool("stream", false, "analyze the trace incrementally without materializing it (bounded memory)")
		ledger  = flag.String("ledger", "", "record every planning decision (classification, sharing, recycling, placement) and write the ledger JSON to this file")
		obsf    = obsflags.Register(flag.CommandLine)
	)
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}

	var v core.Variant
	switch *variant {
	case "hot":
		v = core.VariantHot
	case "hds":
		v = core.VariantHDS
	case "hds+hot":
		v = core.VariantHDSHot
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	cfg := core.DefaultPlanConfig(*bench, v)
	switch *miner {
	case "lcs":
		cfg.Miner = core.MinerLCS
	case "sequitur":
		cfg.Miner = core.MinerSequitur
	default:
		return fmt.Errorf("unknown miner %q", *miner)
	}

	sess, err := obsf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}()

	root := sess.Tracer.Start("analyze " + *bench)
	defer root.End()
	perfScope := sess.Perf.Begin("analyze").AttachSpan(root)
	defer perfScope.End()

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	var a *trace.Analysis
	if *stream {
		// Incremental: decode straight off the file.
		anSpan := root.Child("analyze")
		var sr *trace.StreamReader
		sr, err = trace.NewStreamReader(f)
		if err == nil {
			a, err = trace.AnalyzeSource(sr)
		}
		f.Close()
		if err != nil {
			anSpan.End()
			return err
		}
		anSpan.Set("objects", len(a.Objects))
		anSpan.Set("heap_accesses", a.HeapAccesses)
		anSpan.End()
	} else {
		readSpan := root.Child("read-trace")
		tr, rerr := trace.Read(f)
		f.Close()
		if rerr != nil {
			readSpan.End()
			return rerr
		}
		readSpan.Set("events", len(tr.Events))
		readSpan.End()

		anSpan := root.Child("analyze")
		a = trace.Analyze(tr)
		anSpan.Set("objects", len(a.Objects))
		anSpan.Set("heap_accesses", a.HeapAccesses)
		anSpan.End()
	}

	perfScope.AddEvents(uint64(a.Events))

	planSpan := root.Child("plan " + v.String())
	cfg.Trace = planSpan
	if *ledger != "" {
		cfg.Ledger = core.NewLedger()
	}
	plan, sum, err := core.BuildPlan(a, cfg)
	planSpan.End()
	if err != nil {
		return err
	}

	if *ledger != "" {
		lf, lerr := os.Create(*ledger)
		if lerr != nil {
			return lerr
		}
		if lerr := cfg.Ledger.WriteJSON(lf); lerr != nil {
			lf.Close()
			return lerr
		}
		if lerr := lf.Close(); lerr != nil {
			return lerr
		}
		fmt.Fprintf(os.Stderr, "decision ledger (%d decisions) written to %s\n", cfg.Ledger.Len(), *ledger)
	}

	if reg := sess.Metrics; reg != nil {
		kv := []string{"benchmark", *bench, "variant", v.String()}
		reg.Counter("prefix_analyze_trace_events_total", kv...).Add(uint64(a.Events))
		reg.Counter("prefix_analyze_heap_accesses_total", kv...).Add(a.HeapAccesses)
		reg.Gauge("prefix_analyze_objects", kv...).Set(float64(len(a.Objects)))
		reg.Gauge("prefix_plan_sites", kv...).Set(float64(plan.NumSites()))
		reg.Gauge("prefix_plan_counters", kv...).Set(float64(plan.NumCounters()))
		reg.Gauge("prefix_plan_region_bytes", kv...).Set(float64(plan.RegionSize))
		reg.Gauge("prefix_plan_placed_objects", kv...).Set(float64(plan.PlacedObjects))
		reg.Gauge("prefix_plan_hds_objects", kv...).Set(float64(plan.HDSObjects))
	}

	if *summary {
		fmt.Fprintf(os.Stderr, "trace: %d events, %d objects, %d heap accesses\n",
			a.Events, len(a.Objects), a.HeapAccesses)
		fmt.Fprintf(os.Stderr, "hot: %d objects covering %.1f%% of heap accesses, %d in streams\n",
			sum.HotObjects, sum.CoveragePct, sum.HotInHDS)
		fmt.Fprintf(os.Stderr, "context: %s, %d sites, %d counters\n",
			plan.KindsString(), plan.NumSites(), plan.NumCounters())
		fmt.Fprintf(os.Stderr, "region: %d bytes, %d placed objects\n",
			plan.RegionSize, plan.PlacedObjects)
		ohds := sum.OHDS
		if len(ohds) > 8 {
			ohds = ohds[:8]
		}
		report.Figure2(os.Stderr, ohds, sum.Recon)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		if err := plan.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		// A close error on the output file means a truncated plan; report it.
		return f.Close()
	}
	return plan.WriteJSON(w)
}
