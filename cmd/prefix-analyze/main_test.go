package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	core "prefix/internal/prefix"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

// chunkSizes are the chunk sizes the differential test records at:
// one event per chunk, a small chunk, and the default (0).
var chunkSizes = []int{1, 4096, 0}

// writeTraces records bench's profiling run as prefix-trace does, once
// per chunk size, and returns the file paths in chunkSizes order.
func writeTraces(t *testing.T, bench string) []string {
	t.Helper()
	spec, err := workloads.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), machine.WithRecorder(rec))
	spec.Program.Run(m, spec.Profile)
	m.Finish()
	tr := rec.Trace()

	dir := t.TempDir()
	var paths []string
	for _, chunk := range chunkSizes {
		var buf bytes.Buffer
		spill, err := trace.NewSpillRecorder(&buf, chunk)
		if err != nil {
			t.Fatal(err)
		}
		spill.RecordBatch(tr.Events)
		spill.AddInstr(tr.Instr)
		if err := spill.Close(); err != nil {
			t.Fatal(err)
		}
		if chunk == 4096 && spill.Stats().Chunks < 2 {
			t.Fatalf("%s profile fits in %d chunk(s); the check needs several", bench, spill.Stats().Chunks)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s.chunk%d.pfxt", bench, chunk))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

// TestRunContainerVersionsIdentical: the same run recorded at chunk
// sizes 1, 4096 and the default yields byte-identical plan and ledger
// JSON.
func TestRunContainerVersionsIdentical(t *testing.T) {
	paths := writeTraces(t, "ft")
	dir := t.TempDir()
	outputs := func(name, tracePath string) (plan, ledger []byte) {
		planPath := filepath.Join(dir, name+".plan.json")
		ledgerPath := filepath.Join(dir, name+".ledger.json")
		var stdout bytes.Buffer
		if err := run([]string{"-trace", tracePath, "-bench", "ft", "-o", planPath, "-ledger", ledgerPath}, &stdout); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: -o set but stdout got %q", name, stdout.String())
		}
		plan, err := os.ReadFile(planPath)
		if err != nil {
			t.Fatal(err)
		}
		ledger, err = os.ReadFile(ledgerPath)
		if err != nil {
			t.Fatal(err)
		}
		return plan, ledger
	}
	plan1, ledger1 := outputs("chunk1", paths[0])
	for i, path := range paths[1:] {
		chunk := chunkSizes[i+1]
		plan, ledger := outputs(fmt.Sprintf("chunk%d", chunk), path)
		if !bytes.Equal(plan1, plan) {
			t.Errorf("plan JSON differs between chunk sizes 1 and %d", chunk)
		}
		if !bytes.Equal(ledger1, ledger) {
			t.Errorf("ledger JSON differs between chunk sizes 1 and %d", chunk)
		}
	}
	plan, err := core.ReadJSON(bytes.NewReader(plan1))
	if err != nil {
		t.Fatalf("plan does not read back: %v", err)
	}
	if plan.NumSites() == 0 {
		t.Error("plan places no sites")
	}

	// Without -o the plan goes to stdout, byte for byte.
	var stdout bytes.Buffer
	if err := run([]string{"-trace", paths[len(paths)-1], "-bench", "ft"}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), plan1) {
		t.Error("plan on stdout differs from the -o file")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", "x.pfxt", "-variant", "cold"}, `unknown variant "cold"`},
		{[]string{"-trace", "x.pfxt", "-miner", "apriori"}, `unknown miner "apriori"`},
		{[]string{"-trace", filepath.Join(t.TempDir(), "missing.pfxt")}, "missing.pfxt"},
	} {
		err := run(c.args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%q) = %v, want error containing %q", c.args, err, c.want)
		}
	}
	if err := run(nil, &bytes.Buffer{}); !errors.Is(err, errUsage) {
		t.Errorf("run without -trace = %v, want usage error", err)
	}
}
