package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// The expected outputs live in testdata/expected: suite tables in full,
// and the offline plans (megabytes each) as SHA-256 digests in
// planDigests, one "<digest>  <benchmark>.plan.json" line each.
const planDigests = "offline-analyze.plans.sha256"

//go:embed testdata/expected
var expectedFS embed.FS

// expectedOutput returns the recorded output a job must reproduce — the
// bytes themselves, or for a plan its digest — and whether one applies.
// Suite inputs do not depend on the seed, so their tables are checked at
// every seed; the offline plans only at seed 0, where they were recorded.
func expectedOutput(w workload, seed uint64, key string) (want []byte, applies bool, err error) {
	if w.Offline && seed != 0 {
		return nil, false, nil
	}
	if !strings.HasSuffix(key, ".plan.json") {
		b, err := expectedFS.ReadFile("testdata/expected/" + key)
		return b, true, err
	}
	b, err := expectedFS.ReadFile("testdata/expected/" + planDigests)
	if err != nil {
		return nil, true, err
	}
	digests := parseDigests(b)
	d, ok := digests[key]
	if !ok {
		return nil, true, fmt.Errorf("%s has no entry for %s", planDigests, key)
	}
	return []byte(d), true, nil
}

// checkedForm returns what is compared for an output: the bytes, or for
// a plan its digest.
func checkedForm(key string, out []byte) []byte {
	if !strings.HasSuffix(key, ".plan.json") {
		return out
	}
	sum := sha256.Sum256(out)
	return []byte(hex.EncodeToString(sum[:]))
}

func parseDigests(b []byte) map[string]string {
	m := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			m[f[1]] = f[0]
		}
	}
	return m
}

// writeExpected records one expected output into dir.
func writeExpected(dir, key string, out []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if !strings.HasSuffix(key, ".plan.json") {
		return os.WriteFile(filepath.Join(dir, key), out, 0o644)
	}
	path := filepath.Join(dir, planDigests)
	old, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	digests := parseDigests(old)
	digests[key] = string(checkedForm(key, out))
	var buf bytes.Buffer
	for _, k := range sortedKeys(digests) {
		fmt.Fprintf(&buf, "%s  %s\n", digests[k], k)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
