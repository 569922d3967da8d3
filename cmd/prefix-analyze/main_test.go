package main

import (
	"bytes"
	"errors"
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

// writeTraces records bench's profiling run as prefix-trace does and
// writes it twice: as a classic version-1 file and as a chunked
// version-3 stream with small chunks. It returns both paths.
func writeTraces(t *testing.T, bench string) (classic, chunked string) {
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
	classic = filepath.Join(dir, bench+".v1.pfxt")
	chunked = filepath.Join(dir, bench+".v3.pfxt")
	var v1 bytes.Buffer
	if err := tr.Write(&v1); err != nil {
		t.Fatal(err)
	}
	var v3 bytes.Buffer
	spill, err := trace.NewSpillRecorder(&v3, 4096)
	if err != nil {
		t.Fatal(err)
	}
	spill.RecordBatch(tr.Events)
	spill.AddInstr(tr.Instr)
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
	if spill.Stats().Chunks < 2 {
		t.Fatalf("%s profile fits in %d chunk(s); the check needs several", bench, spill.Stats().Chunks)
	}
	if err := os.WriteFile(classic, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(chunked, v3.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return classic, chunked
}

// TestRunContainerVersionsIdentical: the same run written as a classic
// and as a chunked trace yields byte-identical plan and ledger JSON.
func TestRunContainerVersionsIdentical(t *testing.T) {
	classic, chunked := writeTraces(t, "ft")
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
	plan1, ledger1 := outputs("v1", classic)
	plan3, ledger3 := outputs("v3", chunked)
	if !bytes.Equal(plan1, plan3) {
		t.Error("plan JSON differs between the classic and the chunked trace")
	}
	if !bytes.Equal(ledger1, ledger3) {
		t.Error("ledger JSON differs between the classic and the chunked trace")
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
	if err := run([]string{"-trace", chunked, "-bench", "ft"}, &stdout); err != nil {
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
