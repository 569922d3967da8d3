// Command perfbench is the repository's benchmark. It runs one named
// workload through the PreFix pipeline's public entry points for a fixed
// number of seconds, checks every output, and prints one JSON result
// line: the end-to-end metrics of an untraced run (--trace 0) or the
// per-layer metrics of a traced run (--trace 1).
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload plan-heavy --seed 0 --seconds 20 --trace 0
//	perfbench compare OLD.json NEW.json
//
// See perfbench/README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the result file: the result with its provenance and the
// output-check failures.
type record struct {
	Provenance provenance `json:"provenance"`
	Result     result     `json:"result"`
	Problems   []string   `json:"problems,omitempty"`
	// PassWalls are the measured passes' wall times, in order.
	PassWalls []float64 `json:"pass_walls_s"`
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: plan-heavy, sim-heavy or offline-analyze")
		seed     = fs.Uint64("seed", 0, "workload seed (reaches the offline workload's recorded run)")
		seconds  = fs.Int("seconds", 10, "seconds of measured passes")
		traced   = fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		recordTo = fs.String("record-expected", "", "write this run's output-check files to DIR instead of checking them (seed 0 only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		if err == nil {
			err = fmt.Errorf("want --seconds >= 1, --trace 0 or 1 and no positional arguments")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *recordTo != "" && *seed != 0 {
		fmt.Fprintln(stderr, "perfbench: --record-expected needs --seed 0")
		return 2
	}

	r := &runner{
		w:        w,
		seed:     *seed,
		seconds:  float64(*seconds),
		traced:   *traced == 1,
		workDir:  filepath.Join(".bench_build", "perfbench"),
		recordTo: *recordTo,
		log:      stderr,
	}
	res, err := r.measure()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec := record{Provenance: newProvenance(w, *seed, *seconds, *traced == 1), Result: res, Problems: r.problems, PassWalls: r.passWalls}
	path, err := r.writeRecord(rec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	pj, _ := json.Marshal(rec.Provenance)
	fmt.Fprintf(stdout, "provenance: %s\nresult file: %s\n", pj, path)
	for _, p := range r.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord writes the result file and, for a traced run, the spans.
func (r *runner) writeRecord(rec record) (string, error) {
	dir := filepath.Join(r.workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	mode := 0
	if r.traced {
		mode = 1
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d-%d", r.w.Name, r.seed, mode, time.Now().UnixNano()))
	js, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(base+".json", append(js, '\n'), 0o644); err != nil {
		return "", err
	}
	if r.tr != nil {
		f, err := os.Create(base + ".spans.jsonl")
		if err != nil {
			return "", err
		}
		if err := r.tr.write(f); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
	}
	return base + ".json", nil
}
