// Command prefix-bench regenerates the paper's evaluation: every table
// and figure of the PreFix paper (CGO 2025), computed over the synthetic
// benchmark suite and the full simulation pipeline.
//
// Usage:
//
//	prefix-bench                      # everything, long-run scale
//	prefix-bench -only table3         # one table/figure
//	prefix-bench -bench mcf,health    # a subset of benchmarks
//	prefix-bench -scale bench         # faster, reduced-scale runs
//	prefix-bench -jobs 8              # parallel benchmark/seed evaluation
//	prefix-bench -heatmap-dir out/    # also write Figure 9 CSVs
//	prefix-bench -attrib              # per-site attribution + decision ledgers
//	prefix-bench -attrib -only attribution   # just the attribution table
//
// Observability:
//
//	prefix-bench -serve :8080                  # live /metrics /status /trace
//	prefix-bench -metrics-out run.prom         # Prometheus text (or .json)
//	prefix-bench -trace-out phases.json -v     # chrome://tracing + summary
//	prefix-bench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Run history and regression gating:
//
//	prefix-bench -record                       # snapshot BENCH_<ts>.json
//	prefix-bench -baseline BENCH_x.json        # diff against a snapshot,
//	                                           # exit non-zero on regression
//	prefix-bench -baseline b.json -regress-pct 10
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"prefix/internal/benchstore"
	"prefix/internal/obsflags"
	"prefix/internal/pipeline"
	"prefix/internal/report"
	"prefix/internal/workloads"
)

// artifacts is every value -only accepts.
var artifacts = []string{
	"figure1", "figure2", "table2", "table3", "table4", "table5", "table6",
	"figure9", "figure10", "figure11", "figure12", "figure13", "figure14",
	"variance", "attribution",
}

// comparisonArtifacts are the artifacts computed from the comparison
// suite; -record and -baseline snapshot/diff exactly these runs.
var comparisonArtifacts = []string{
	"figure1", "figure2", "table2", "table3", "table4", "table5", "table6",
	"figure11", "figure12", "figure13", "figure14", "attribution",
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "prefix-bench:", err)
		os.Exit(1)
	}
}

// validateArgs checks every flag combination that can be rejected before
// any benchmark burns cycles.
func validateArgs(only, scale string, seeds, jobs int, record bool, baseline string, regressPct float64, stream bool, streamChunk int, attrib bool) error {
	if only != "" {
		known := false
		for _, a := range artifacts {
			if strings.EqualFold(only, a) {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown -only artifact %q (valid: %s)", only, strings.Join(artifacts, ", "))
		}
	}
	if scale != "long" && scale != "bench" {
		return fmt.Errorf("unknown -scale %q (valid: long, bench)", scale)
	}
	if jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1 (got %d)", jobs)
	}
	if seeds < 0 {
		return fmt.Errorf("-seeds must be non-negative (got %d)", seeds)
	}
	if strings.EqualFold(only, "variance") && seeds == 0 {
		return fmt.Errorf("-only variance requires -seeds N (without seeds the sweep has nothing to run)")
	}
	if regressPct < 0 {
		return fmt.Errorf("-regress-pct must be non-negative (got %g)", regressPct)
	}
	if streamChunk < 0 {
		return fmt.Errorf("-stream-chunk must be non-negative (got %d)", streamChunk)
	}
	if streamChunk > 0 && !stream {
		return fmt.Errorf("-stream-chunk only applies with -stream")
	}
	if strings.EqualFold(only, "attribution") && !attrib {
		return fmt.Errorf("-only attribution requires -attrib (nothing attributes misses to sites without it)")
	}
	if record || baseline != "" {
		ok := only == ""
		for _, a := range comparisonArtifacts {
			if strings.EqualFold(only, a) {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("-record/-baseline snapshot the comparison suite; -only %s does not run it (use a table/figure artifact or drop -only)", only)
		}
	}
	return nil
}

func run() (err error) {
	var (
		only        = flag.String("only", "", "emit a single artifact: figure1, figure2, table2..table6, figure9..figure14, variance")
		benchList   = flag.String("bench", "", "comma-separated benchmark subset (default: all 13)")
		scale       = flag.String("scale", "long", "evaluation scale: long or bench")
		heatmapDir  = flag.String("heatmap-dir", "", "directory for Figure 9 heatmap CSVs")
		capture     = flag.Bool("capture", false, "record long-run traces for Table 5 long-run columns (slower)")
		seeds       = flag.Int("seeds", 0, "additionally run each benchmark across N perturbed evaluation seeds and report the variance (the paper averages over 10 runs)")
		jobs        = flag.Int("jobs", pipeline.DefaultJobs(), "run up to N benchmark/seed evaluations concurrently (1 = serial; output is identical at any job count)")
		record      = flag.Bool("record", false, "snapshot this run's per-benchmark results to BENCH_<timestamp>.json")
		recordOut   = flag.String("record-out", "", "write the run snapshot to this file instead of BENCH_<timestamp>.json (implies -record)")
		baseline    = flag.String("baseline", "", "compare this run against a recorded BENCH_*.json and exit non-zero on regression")
		regressPct  = flag.Float64("regress-pct", 5, "fail the -baseline comparison when any tracked metric regresses by more than this percent")
		stream      = flag.Bool("stream", false, "collect profiles through the bounded-memory spill-to-disk streaming path (report output is identical)")
		streamChunk = flag.Int("stream-chunk", 0, "events per spill chunk in -stream mode (0 = default budget)")
		attrib      = flag.Bool("attrib", false, "attribute every miss to its allocation site and record decision ledgers (simulated results are identical; adds the attribution table, the benchstore attrib section, prefix_attrib_* metrics, and /explain documents)")
		obsf        = obsflags.Register(flag.CommandLine)
	)
	obsf.RegisterServe(flag.CommandLine)
	flag.Parse()

	if *recordOut != "" {
		*record = true
	}
	if err := validateArgs(*only, *scale, *seeds, *jobs, *record, *baseline, *regressPct, *stream, *streamChunk, *attrib); err != nil {
		return err
	}
	names, err := workloads.ResolveList(*benchList)
	if err != nil {
		return err
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

	opt := pipeline.DefaultOptions()
	opt.UseBenchScale = *scale == "bench"
	opt.CaptureLongRun = *capture
	opt.Progress = sess.Progress()
	opt.Metrics = sess.Metrics
	opt.Tracer = sess.Tracer
	opt.Perf = sess.Perf
	opt.Stream = *stream
	opt.StreamChunkEvents = *streamChunk
	opt.Attribution = *attrib
	opt.Explain = sess.Explain

	want := func(artifact string) bool {
		return *only == "" || strings.EqualFold(*only, artifact)
	}
	needComparisons := *record || *baseline != ""
	for _, a := range comparisonArtifacts {
		if want(a) {
			needComparisons = true
		}
	}

	w := os.Stdout
	var cmps []*pipeline.Comparison
	if needComparisons {
		cmps, err = pipeline.RunSuite(names, opt, *jobs)
		if err != nil {
			return err
		}
	}

	emit := func(name string, f func() error) error {
		if !want(name) {
			return nil
		}
		if eerr := f(); eerr != nil {
			return eerr
		}
		_, werr := fmt.Fprintln(w)
		return werr
	}

	if err := emit("figure1", func() error { return report.Figure1(w, cmps) }); err != nil {
		return err
	}
	if err := emit("figure2", func() error {
		// Use the first benchmark with a non-trivial reconstitution.
		for _, c := range cmps {
			s := c.Summaries[c.Best]
			if len(s.OHDS) >= 2 {
				ohds := s.OHDS
				if len(ohds) > 10 {
					ohds = ohds[:10]
				}
				fmt.Fprintf(w, "(reconstitution example from %s)\n", c.Benchmark)
				report.Figure2(w, ohds, s.Recon)
				return nil
			}
		}
		fmt.Fprintln(w, "Figure 2: no benchmark produced multi-stream OHDS at this scale")
		return nil
	}); err != nil {
		return err
	}
	for _, tbl := range []struct {
		name string
		f    func() error
	}{
		{"table2", func() error { return report.Table2(w, cmps) }},
		{"table3", func() error { return report.Table3(w, cmps) }},
		{"table4", func() error { return report.Table4(w, cmps) }},
		{"table5", func() error { return report.Table5(w, cmps) }},
		{"table6", func() error { return report.Table6(w, cmps) }},
	} {
		if err := emit(tbl.name, tbl.f); err != nil {
			return err
		}
	}

	if want("figure9") {
		if err := figure9(w, opt, *heatmapDir); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	if want("figure10") {
		for _, name := range []string{"mysql", "mcf"} {
			results, rerr := pipeline.RunMultithreadedJobs(name, []int{1, 2, 4, 8, 16}, opt, *jobs)
			if rerr != nil {
				return rerr
			}
			if rerr := report.Figure10(w, name, results); rerr != nil {
				return rerr
			}
			fmt.Fprintln(w)
		}
	}
	for _, fig := range []struct {
		name string
		f    func() error
	}{
		{"figure11", func() error { return report.Figure11(w, cmps) }},
		{"figure12", func() error { return report.Figure12(w, cmps) }},
		{"figure13", func() error { return report.Figure13(w, cmps) }},
		{"figure14", func() error { return report.Figure14(w, cmps) }},
	} {
		if err := emit(fig.name, fig.f); err != nil {
			return err
		}
	}

	if *attrib {
		if err := emit("attribution", func() error {
			return report.AttributionTable(w, cmps, pipeline.ExplainTopSites)
		}); err != nil {
			return err
		}
	}

	if *seeds > 0 && want("variance") {
		vs, verr := pipeline.RunSuiteVariance(names, *seeds, opt, *jobs)
		if verr != nil {
			return verr
		}
		if verr := report.VarianceTable(w, vs); verr != nil {
			return verr
		}
	}

	if *record || *baseline != "" {
		snap := benchstore.FromComparisons(cmps, benchstore.Meta{
			//lint:ignore nodeterminism snapshot provenance metadata; never enters simulated results or the regression gate
			Timestamp: time.Now(),
			GitSHA:    benchstore.GitSHA("."),
			Jobs:      *jobs,
			Scale:     *scale,
		})
		if *record {
			path := *recordOut
			if path == "" {
				//lint:ignore nodeterminism output-file timestamp only; -o pins the name when reproducibility matters
				path = benchstore.Filename(time.Now())
			}
			if werr := snap.WriteFile(path); werr != nil {
				return werr
			}
			fmt.Fprintf(os.Stderr, "run snapshot written to %s\n", path)
		}
		if *baseline != "" {
			base, berr := benchstore.ReadFile(*baseline)
			if berr != nil {
				return berr
			}
			if gerr := benchstore.Gate(w, base, snap, *regressPct); gerr != nil {
				return gerr
			}
		}
	}
	return nil
}

// figure9 traces leela under baseline and PreFix and summarizes (and
// optionally dumps) the access heatmaps.
func figure9(w *os.File, opt pipeline.Options, dir string) error {
	fmt.Fprintln(os.Stderr, "tracing leela for figure 9...")
	base, best, variant, err := pipeline.TraceBaselineAndBest("leela", opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "figure 9 traces leela's best variant: %s\n", variant)
	hb := report.BuildHeatmap(base, 120, 80)
	ho := report.BuildHeatmap(best, 120, 80)
	report.Figure9(w, "leela", hb, ho)
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		for _, hm := range []struct {
			name string
			h    *report.Heatmap
		}{{"leela-baseline.csv", hb}, {"leela-prefix.csv", ho}} {
			f, err := os.Create(filepath.Join(dir, hm.name))
			if err != nil {
				return err
			}
			if err := hm.h.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "  CSVs written to %s\n", dir)
	}
	return nil
}
