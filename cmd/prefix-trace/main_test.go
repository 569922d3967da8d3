package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prefix/internal/baselines"
	"prefix/internal/cachesim"
	"prefix/internal/machine"
	"prefix/internal/trace"
	"prefix/internal/workloads"
)

func TestRunUnwritableOutputFailsEarly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no", "such", "dir", "out.pfxt")
	var out bytes.Buffer
	err := run([]string{"-bench", "ft", "-o", path}, &out)
	if err == nil {
		t.Fatal("unwritable output path accepted")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the output path", err)
	}
}

func TestRunWritesReadableTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.pfxt")
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || tr.Instr == 0 {
		t.Errorf("trace is empty: %d events, instr %d", len(tr.Events), tr.Instr)
	}
	if !strings.Contains(out.String(), "events") {
		t.Errorf("summary line missing: %q", out.String())
	}
}

// TestRunStreamMatchesInMemory: the file the CLI streams decodes to
// exactly the events and instruction count an in-memory recorder
// captures of the same run.
func TestRunStreamMatchesInMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.pfxt")
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	streamed, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := workloads.Get("ft")
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	m := machine.New(baselines.NewBaseline(cachesim.DefaultCost()), cachesim.ScaledConfig(), machine.WithRecorder(rec))
	spec.Program.Run(m, spec.Profile)
	m.Finish()
	mem := rec.Trace()
	if !reflect.DeepEqual(mem.Events, streamed.Events) || mem.Instr != streamed.Instr {
		t.Fatalf("streamed trace differs from in-memory trace: %d events (instr %d) vs %d (instr %d)",
			len(streamed.Events), streamed.Instr, len(mem.Events), mem.Instr)
	}
}

// TestRunText: -text dumps one line per event and closes with the
// totals line.
func TestRunText(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ft.txt")
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", path, "-text"}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var events, instr int
	if _, err := fmt.Sscanf(lines[len(lines)-1], "# trace: %d events, %d instructions", &events, &instr); err != nil {
		t.Fatalf("last line %q is not the totals line: %v", lines[len(lines)-1], err)
	}
	if events == 0 || events != len(lines)-1 || instr == 0 {
		t.Errorf("totals line claims %d events, %d instructions; the dump has %d event lines",
			events, instr, len(lines)-1)
	}
	if !strings.Contains(out.String(), fmt.Sprintf("%d events", events)) {
		t.Errorf("summary line %q does not report %d events", out.String(), events)
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "ft", "-o", "x", "-scale", "huge"}, &out); err == nil ||
		!strings.Contains(err.Error(), `unknown scale "huge"`) {
		t.Errorf("unknown -scale not rejected: %v", err)
	}
	if err := run([]string{"-bench", "nosuch", "-o", "x"}, &out); err == nil ||
		!strings.Contains(err.Error(), "nosuch") {
		t.Errorf("unknown -bench not rejected: %v", err)
	}
	// Missing required flags and removed flags are usage errors.
	for _, args := range [][]string{
		{"-bench", "ft"},
		{"-bench", "ft", "-o", "x", "-stream"},
		{"-bench", "ft", "-o", "x", "-chunk-events", "4096"},
	} {
		if err := run(args, &out); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want usage error", args, err)
		}
	}
}
