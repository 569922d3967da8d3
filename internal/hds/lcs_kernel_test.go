package hds

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// naiveLCS is the classic closure-indexed dynamic program, the oracle
// for the bit-parallel kernel: the kernel must reproduce its exact
// output, tie-break (dp(i-1,j) >= dp(i,j-1) steps up) included.
func naiveLCS(a, b []mem.ObjectID) []mem.ObjectID {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return nil
	}
	dp := make([]uint32, (n+1)*(m+1))
	at := func(i, j int) uint32 { return dp[i*(m+1)+j] }
	set := func(i, j int, v uint32) { dp[i*(m+1)+j] = v }
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			if a[i-1] == b[j-1] {
				set(i, j, at(i-1, j-1)+1)
			} else if at(i-1, j) >= at(i, j-1) {
				set(i, j, at(i-1, j))
			} else {
				set(i, j, at(i, j-1))
			}
		}
	}
	out := make([]mem.ObjectID, at(n, m))
	k := len(out)
	for i, j := n, m; i > 0 && j > 0; {
		switch {
		case a[i-1] == b[j-1]:
			k--
			out[k] = a[i-1]
			i--
			j--
		case at(i-1, j) >= at(i, j-1):
			i--
		default:
			j--
		}
	}
	return out
}

func randSeq(rng *xrand.Rand, n, alphabet int) []mem.ObjectID {
	s := make([]mem.ObjectID, n)
	for i := range s {
		s[i] = mem.ObjectID(rng.Uint64n(uint64(alphabet)) + 1)
	}
	return s
}

// TestLCSKernelMatchesNaive: the bit-parallel kernel — including the
// reused-buffer path, where the buffers retain a previous pair's words —
// must return exactly the naive result, not just one of equal length.
func TestLCSKernelMatchesNaive(t *testing.T) {
	rng := xrand.New(1234)
	var lb lcsBuf // reused across all pairs, like MineLCS uses it
	for trial := 0; trial < 300; trial++ {
		n := int(rng.Uint64n(70))
		m := int(rng.Uint64n(70))
		a := randSeq(rng, n, 6)
		b := randSeq(rng, m, 6)
		want := naiveLCS(a, b)
		if got := lb.lcs(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (reused buf): lcs(%v, %v) = %v, want %v", trial, a, b, got, want)
		}
		if got := LCS(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (fresh buf): got %v, want %v", trial, got, want)
		}
	}
}

// TestLCSBufGrowsAndShrinks: a buffer sized for a big pair must still be
// correct for a following smaller pair (the reuse path slices down).
func TestLCSBufGrowsAndShrinks(t *testing.T) {
	rng := xrand.New(77)
	var lb lcsBuf
	big := randSeq(rng, 120, 4)
	if got, want := lb.lcs(big, big), naiveLCS(big, big); !reflect.DeepEqual(got, want) {
		t.Fatal("big pair wrong")
	}
	small := randSeq(rng, 9, 3)
	other := randSeq(rng, 13, 3)
	if got, want := lb.lcs(small, other), naiveLCS(small, other); !reflect.DeepEqual(got, want) {
		t.Fatalf("small pair after big: got %v, want %v", got, want)
	}
}

// TestLCSKernelEdgeCases runs the kernel against the oracle on the
// shapes where a bit-parallel LCS goes wrong: lengths around the word
// boundary (0, 1, 63, 64, 65, 128), one- and two-letter alphabets,
// identical, reversed and all-distinct windows, and values with the top
// bits set. One buffer serves every pair, largest
// first, so each pair runs on buffers a longer pair left behind.
func TestLCSKernelEdgeCases(t *testing.T) {
	lengths := []int{128, 65, 64, 63, 1, 0}
	rng := xrand.New(99)
	shapes := map[string]func(n int) ([]mem.ObjectID, []mem.ObjectID){
		"alphabet1": func(n int) ([]mem.ObjectID, []mem.ObjectID) {
			return randSeq(rng, n, 1), randSeq(rng, n, 1)
		},
		"alphabet2": func(n int) ([]mem.ObjectID, []mem.ObjectID) {
			return randSeq(rng, n, 2), randSeq(rng, n, 2)
		},
		"identical": func(n int) ([]mem.ObjectID, []mem.ObjectID) {
			a := randSeq(rng, n, 5)
			return a, append([]mem.ObjectID(nil), a...)
		},
		"reversed": func(n int) ([]mem.ObjectID, []mem.ObjectID) {
			a := randSeq(rng, n, 7)
			b := append([]mem.ObjectID(nil), a...)
			slices.Reverse(b)
			return a, b
		},
		"distinct": func(n int) ([]mem.ObjectID, []mem.ObjectID) {
			a, b := make([]mem.ObjectID, n), make([]mem.ObjectID, n)
			for i := range a {
				a[i] = mem.ObjectID(i + 1)
				b[i] = mem.ObjectID(n - i)
			}
			return a, b
		},
		"huge-ids": func(n int) ([]mem.ObjectID, []mem.ObjectID) {
			a, b := randSeq(rng, n, 3), randSeq(rng, n, 3)
			for i := range a {
				a[i] |= 1 << 62
				b[i] |= 1 << 62
			}
			return a, b
		},
	}
	var lb lcsBuf
	for _, name := range []string{"alphabet1", "alphabet2", "identical", "reversed", "distinct", "huge-ids"} {
		for _, n := range lengths {
			for _, m := range lengths {
				a, _ := shapes[name](n)
				_, b := shapes[name](m)
				if name == "identical" || name == "reversed" || name == "distinct" {
					a, b = shapes[name](min(n, m))
				}
				want := naiveLCS(a, b)
				if got := lb.lcs(a, b); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %dx%d: lcs(%v, %v) = %v, want %v", name, len(a), len(b), a, b, got, want)
				}
			}
		}
	}
}

// FuzzLCS checks the kernel against the oracle on arbitrary pairs. The
// first byte splits the input into the two sequences; each later byte
// is one element over a four-letter alphabet (a high bit set in the
// first byte sets every value's top bit). The pair runs
// both on a fresh buffer and on one a larger pair left behind.
func FuzzLCS(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 1, 2})
	f.Add([]byte{0x80 | 64, 0, 1, 0, 1})
	f.Add(bytes.Repeat([]byte{65, 1, 2, 3}, 40))
	big := randSeq(xrand.New(5), 130, 4)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		seq := make([]mem.ObjectID, len(data)-1)
		for i, c := range data[1:] {
			seq[i] = mem.ObjectID(c&3 + 1)
			if data[0]&0x80 != 0 {
				seq[i] |= 1 << 63
			}
		}
		split := min(int(data[0]&0x7f), len(seq))
		a, b := seq[:split], seq[split:]
		want := naiveLCS(a, b)
		if got := LCS(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("LCS(%v, %v) = %v, want %v", a, b, got, want)
		}
		var lb lcsBuf
		lb.lcs(big, big[3:])
		if got := lb.lcs(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("reused buffer: lcs(%v, %v) = %v, want %v", a, b, got, want)
		}
	})
}

// dedupeMap is the map-based dedupe MineLCS used before dedupeInto, the
// oracle for it.
func dedupeMap(seq []mem.ObjectID) []mem.ObjectID {
	seen := make(map[mem.ObjectID]bool, len(seq))
	out := seq[:0:0]
	for _, o := range seq {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// TestDedupeIntoMatchesMap: on random sequences with repeats, dedupeInto
// keeps the same objects in the same first-occurrence order as the map
// version, on a reused buffer, and leaves its input alone.
func TestDedupeIntoMatchesMap(t *testing.T) {
	rng := xrand.New(8)
	var buf []mem.ObjectID
	for trial := 0; trial < 500; trial++ {
		seq := randSeq(rng, int(rng.Uint64n(80)), 1+int(rng.Uint64n(20)))
		orig := append([]mem.ObjectID(nil), seq...)
		want := dedupeMap(seq)
		buf = dedupeInto(buf, seq)
		if !slices.Equal(buf, want) {
			t.Fatalf("dedupeInto(%v) = %v, want %v", seq, buf, want)
		}
		if !slices.Equal(seq, orig) {
			t.Fatalf("dedupeInto modified its input")
		}
	}
}

// referenceMineLCS is MineLCS as it was before window tables, the ring
// and the allocation-free dedupe: naive kernel per pair, map dedupe,
// Key per pair.
func referenceMineLCS(refs []mem.ObjectID, cfg Config) []Stream {
	w := cfg.Window
	type acc struct {
		stream Stream
		count  uint64
	}
	cands := make(map[string]*acc)
	var order []string
	windows := len(refs) / w
	step := 1
	if windows*len(cfg.Lags) > 20000 {
		step = (windows*len(cfg.Lags) + 20000 - 1) / 20000
	}
	for i := 0; i < windows; i += step {
		for _, lag := range cfg.Lags {
			j := i + lag
			if j >= windows {
				break
			}
			members := dedupeMap(naiveLCS(refs[i*w:(i+1)*w], refs[j*w:(j+1)*w]))
			if len(members) < cfg.MinLength {
				continue
			}
			s := Stream{Objects: members}
			if c, ok := cands[s.Key()]; ok {
				c.count++
			} else {
				cands[s.Key()] = &acc{stream: s, count: 1}
				order = append(order, s.Key())
			}
		}
	}
	var out []Stream
	for _, k := range order {
		c := cands[k]
		if int(c.count+1) < cfg.MinFrequency {
			continue
		}
		s := c.stream
		s.Heat = (c.count + 1) * uint64(len(s.Objects))
		out = append(out, s)
	}
	return rankAndTrim(out, cfg)
}

// TestMineLCSMatchesReference: the mined OHDS is identical to the
// reference miner's, both on a short profile (every anchor window) and
// on one long enough that the anchor is strided, where the table ring
// must still hand each pair the right windows.
func TestMineLCSMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Window = 16
	for _, n := range []int{4000, 40000} {
		refs := benchRefs(n)
		if got, want := MineLCS(refs, cfg), referenceMineLCS(refs, cfg); !reflect.DeepEqual(got, want) {
			t.Errorf("%d refs: MineLCS differs from the reference miner (%d vs %d streams)", n, len(got), len(want))
		}
	}
}
