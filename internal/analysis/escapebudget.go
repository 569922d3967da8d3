package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Escapebudget is the compiler-diagnostics half of the hot-path gate:
// hotalloc/hotcall reason about syntax, this analyzer asks the compiler
// what it actually decided. For every package containing
// //prefix:hotpath functions it runs `go build -gcflags=-m=2`, parses
// the escape-analysis and inlining decisions for the annotated
// functions, and diffs them against a committed budget file:
//
//   - a function recorded as inlinable must stay inlinable;
//   - a function must not gain heap escapes beyond those recorded.
//
// The budget is regenerated with
//
//	go run ./cmd/prefix-lint -analyzers escapebudget -record ./...
//
// which rewrites the analyzed packages' entries in place (the default
// file is testdata/escape-budget.json; see the -budget flag). A golden
// package can carry its own escape-budget.json next to its sources,
// which takes precedence over the global file.
//
// The analyzer shells out to the go tool, so it is excluded from the
// `go vet -vettool` unit protocol and runs only under the prefix-lint
// driver.
var Escapebudget = &Analyzer{
	Name: "escapebudget",
	Doc:  "diff compiler escape/inline decisions for //prefix:hotpath functions against a committed budget",
	Run:  runEscapeBudget,
}

// EscapeBudgetFile is the budget consulted when the analyzed package's
// directory has no escape-budget.json of its own. cmd/prefix-lint
// resolves its -budget flag (default testdata/escape-budget.json,
// relative to -C) into this variable before running the suite.
var EscapeBudgetFile = "testdata/escape-budget.json"

// EscapeBudgetRecord switches escapebudget from diffing to rewriting
// the budget entries for the packages analyzed (the CLI -record flag).
var EscapeBudgetRecord = false

const escapeBudgetComment = "Compiler escape/inline budget for //prefix:hotpath functions. " +
	"Regenerate with: go run ./cmd/prefix-lint -analyzers escapebudget -record ./..."

// budgetEntry is one function's recorded compiler decisions. Escapes
// are normalized messages without positions, so unrelated line shifts
// do not invalidate the budget.
type budgetEntry struct {
	File    string   `json:"file"`
	Inline  bool     `json:"inline"`
	Cost    int      `json:"cost"`
	Escapes []string `json:"escapes"`

	noInlineReason string // transient; not serialized
}

type budgetFile struct {
	Comment   string                 `json:"comment"`
	Functions map[string]budgetEntry `json:"functions"`
}

func runEscapeBudget(pass *Pass) error {
	hot := hotFuncDecls(pass)
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	budgetPath := filepath.Join(dir, "escape-budget.json")
	if _, err := os.Stat(budgetPath); err != nil {
		budgetPath = EscapeBudgetFile
	}
	if len(hot) == 0 {
		if EscapeBudgetRecord {
			// Drop entries of functions that were deleted or lost
			// their annotation.
			return recordBudget(budgetPath, pass.Pkg.Path(), nil)
		}
		return nil
	}
	diags, err := compileDiagnostics(dir, pass.Files[0].Name.Name == "main")
	if err != nil {
		return err
	}

	current := make(map[string]budgetEntry)
	declPos := make(map[string]*ast.FuncDecl)
	for _, decl := range hot {
		fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func)
		if !ok {
			continue
		}
		q := funcQualifiedName(fn)
		start := pass.Fset.Position(decl.Pos())
		end := pass.Fset.Position(decl.End())
		base := filepath.Base(start.Filename)
		entry := budgetEntry{File: base, Escapes: []string{}}
		seen := make(map[string]bool)
		for _, cd := range diags {
			if cd.file != base {
				continue
			}
			switch {
			case cd.line == start.Line && cd.kind == diagInline:
				entry.Inline, entry.Cost, entry.noInlineReason = cd.inline, cd.cost, cd.msg
			case cd.line >= start.Line && cd.line <= end.Line && cd.kind == diagEscape:
				if !seen[cd.msg] {
					seen[cd.msg] = true
					entry.Escapes = append(entry.Escapes, cd.msg)
				}
			}
		}
		sort.Strings(entry.Escapes)
		current[q] = entry
		declPos[q] = decl
	}

	if EscapeBudgetRecord {
		return recordBudget(budgetPath, pass.Pkg.Path(), current)
	}

	budget, err := loadBudget(budgetPath)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(current))
	for q := range current {
		keys = append(keys, q)
	}
	sort.Strings(keys)
	for _, q := range keys {
		cur := current[q]
		decl := declPos[q]
		want, ok := budget.Functions[q]
		if !ok {
			pass.Reportf(decl.Pos(), "no escape-budget entry for %s in %s; run `prefix-lint -analyzers escapebudget -record` and commit the result",
				q, budgetPath)
			continue
		}
		if want.Inline && !cur.Inline {
			reason := cur.noInlineReason
			if reason == "" {
				reason = "no inline decision reported"
			}
			pass.Reportf(decl.Pos(), "hot-path function %s lost inlinability: %s (budget requires it to stay inlinable)",
				q, reason)
		}
		allowed := make(map[string]bool, len(want.Escapes))
		for _, e := range want.Escapes {
			allowed[e] = true
		}
		for _, e := range cur.Escapes {
			if !allowed[e] {
				pass.Reportf(decl.Pos(), "new heap escape in hot-path function %s: %s (not in budget)", q, e)
			}
		}
	}
	return nil
}

// recordBudget rewrites pkgPath's entries in the budget file, leaving
// other packages' entries untouched. The output is deterministic
// (sorted keys, fixed indentation), so two consecutive -record runs
// over an unchanged tree produce byte-identical files. A package with
// nothing to record and nothing to drop leaves the file alone.
func recordBudget(path, pkgPath string, current map[string]budgetEntry) error {
	budget, err := loadBudget(path)
	if err != nil {
		return err
	}
	prefix := pkgPath + "."
	dropped := false
	for q := range budget.Functions {
		if rest, ok := strings.CutPrefix(q, prefix); ok && !strings.Contains(rest, "/") {
			delete(budget.Functions, q)
			dropped = true
		}
	}
	if len(current) == 0 && !dropped {
		return nil
	}
	for q, e := range current {
		e.noInlineReason = ""
		budget.Functions[q] = e
	}
	budget.Comment = escapeBudgetComment
	out, err := json.MarshalIndent(budget, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, out, 0o644)
}

// loadBudget reads the budget file; a missing file yields an empty
// budget (check mode then reports every annotated function as
// unrecorded, record mode starts fresh).
func loadBudget(path string) (*budgetFile, error) {
	b := &budgetFile{Functions: make(map[string]budgetEntry)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return b, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if b.Functions == nil {
		b.Functions = make(map[string]budgetEntry)
	}
	return b, nil
}

const (
	diagInline = iota
	diagEscape
)

// compilerDiag is one parsed line of `go build -gcflags=-m=2` output.
type compilerDiag struct {
	file   string // base name
	line   int
	kind   int
	inline bool   // diagInline: can the function be inlined
	cost   int    // diagInline: inline cost when inlinable
	msg    string // diagEscape: normalized message; diagInline: reason when not inlinable
}

// compileDiagnostics compiles the package in dir and parses the
// compiler's -m=2 commentary. The build cache replays diagnostics for
// cached packages, so repeated runs are cheap and consistent. Main
// packages are built to the null device so no binary is dropped.
func compileDiagnostics(dir string, isMain bool) ([]compilerDiag, error) {
	args := []string{"build", "-gcflags=-m=2"}
	if isMain {
		args = append(args, "-o", os.DevNull)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2 in %s: %v\n%s", dir, err, out.String())
	}
	var diags []compilerDiag
	for _, line := range strings.Split(out.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, ":", 4)
		if len(parts) != 4 {
			continue
		}
		lineNo, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		msg := parts[3]
		if strings.HasPrefix(msg, "  ") || strings.HasPrefix(msg, " \t") {
			continue // flow:/from continuation lines
		}
		msg = strings.TrimSpace(msg)
		d := compilerDiag{file: filepath.Base(parts[0]), line: lineNo}
		switch {
		case strings.HasPrefix(msg, "can inline "):
			d.kind, d.inline = diagInline, true
			if _, rest, ok := strings.Cut(msg, " with cost "); ok {
				if costStr, _, ok := strings.Cut(rest, " "); ok {
					d.cost, _ = strconv.Atoi(costStr)
				}
			}
		case strings.HasPrefix(msg, "cannot inline "):
			d.kind, d.inline = diagInline, false
			d.msg = strings.TrimPrefix(msg, "cannot inline ")
		case strings.HasSuffix(msg, "escapes to heap") || strings.HasSuffix(msg, "escapes to heap:"):
			d.kind = diagEscape
			d.msg = strings.TrimSuffix(msg, ":")
		case strings.HasPrefix(msg, "moved to heap: "):
			d.kind = diagEscape
			d.msg = msg
		default:
			continue
		}
		diags = append(diags, d)
	}
	return diags, nil
}
