package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance says what produced a result. Two results are like for like
// when every field but GitSHA and SourceDigest (the code under
// comparison) is equal.
type provenance struct {
	GitSHA       string `json:"git_sha"`
	SourceDigest string `json:"source_digest"`
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	NumCPU       int    `json:"num_cpu"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	Jobs         int    `json:"jobs"`
	Shards       int    `json:"shards"`
	Stream       bool   `json:"stream"`
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
}

func newProvenance(w workload, seed uint64, seconds int, traced bool) provenance {
	return provenance{
		GitSHA:       gitSHA("."),
		SourceDigest: sourceDigest("."),
		GoVersion:    runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Jobs:         1,
		Shards:       1,
		Stream:       w.Offline,
		Workload:     w.Name,
		Seed:         seed,
		Seconds:      seconds,
		Trace:        traced,
	}
}

// gitSHA reads HEAD from root/.git without running git; "none" outside
// a git checkout.
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}

// sourceDigest hashes the module's Go sources, go.mod files and the
// benchmark's expected outputs, so results from checkouts that are not
// git repositories still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		n := d.Name()
		if strings.HasSuffix(n, ".go") || n == "go.mod" || strings.Contains(filepath.ToSlash(path), "testdata/expected/") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// likeForLike lists the provenance fields on which a and b differ,
// ignoring the code identity.
func likeForLike(a, b provenance) []string {
	a.GitSHA, b.GitSHA = "", ""
	a.SourceDigest, b.SourceDigest = "", ""
	var am, bm map[string]any
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	json.Unmarshal(ja, &am)
	json.Unmarshal(jb, &bm)
	var diff []string
	for _, k := range sortedKeys(am) {
		if fmt.Sprint(am[k]) != fmt.Sprint(bm[k]) {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", k, am[k], bm[k]))
		}
	}
	return diff
}

func readRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// compareCmd diffs two result files metric by metric. It refuses (exit
// 2) when their provenance is not like for like.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD.json NEW.json")
		return 2
	}
	old, err := readRecord(args[0])
	if err == nil {
		var cur record
		cur, err = readRecord(args[1])
		if err == nil {
			if diff := likeForLike(old.Provenance, cur.Provenance); len(diff) > 0 {
				fmt.Fprintln(stderr, "perfbench: refusing to compare results with different provenance:")
				for _, d := range diff {
					fmt.Fprintln(stderr, "  "+d)
				}
				return 2
			}
			fmt.Fprintf(stdout, "%s seed %d: %s (%s) -> %s (%s)\n", cur.Provenance.Workload, cur.Provenance.Seed,
				old.Provenance.GitSHA, old.Provenance.SourceDigest, cur.Provenance.GitSHA, cur.Provenance.SourceDigest)
			fmt.Fprintf(stdout, "%-36s %14s %14s %9s %s\n", "metric", "old", "new", "delta%", "unit")
			for _, name := range sortedKeys(cur.Result.Metrics) {
				o, n := old.Result.Metrics[name].Value, cur.Result.Metrics[name].Value
				delta := math.NaN()
				if o != 0 {
					delta = 100 * (n - o) / o
				}
				fmt.Fprintf(stdout, "%-36s %14.6g %14.6g %+8.2f%% %s\n", name, o, n, delta, cur.Result.Metrics[name].Unit)
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "perfbench:", err)
	return 1
}
