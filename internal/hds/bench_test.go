package hds

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// benchRefs builds a reference string with embedded repetition, the shape
// the miners see after hot-object filtering.
func benchRefs(n int) []mem.ObjectID {
	rng := xrand.New(3)
	motif := randSeq(rng, 24, 12)
	refs := make([]mem.ObjectID, 0, n)
	for len(refs) < n {
		if rng.Bool(0.7) {
			refs = append(refs, motif...)
		} else {
			refs = append(refs, randSeq(rng, 16, 200)...)
		}
	}
	return refs[:n]
}

func BenchmarkMineLCS(b *testing.B) {
	refs := benchRefs(16384)
	cfg := Config{Window: 64, MinLength: 4, MinFrequency: 2, MaxStreams: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MineLCS(refs, cfg)
	}
}

func BenchmarkSequiturAppend(b *testing.B) {
	refs := benchRefs(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewSequitur()
		for _, r := range refs {
			g.Append(r)
		}
	}
}

// BenchmarkLCSKernel times the LCS kernel on W=64 window pairs of a
// motif-bearing reference string and reports ns/pair. "pair" prebuilds
// each window's match table once, as MineLCS does; "lcs" builds both
// tables per call, as LCS does.
func BenchmarkLCSKernel(b *testing.B) {
	const w, windows = 64, 64
	refs := benchRefs(w * (windows + 1))
	win := func(k int) []mem.ObjectID { return refs[k*w : (k+1)*w] }
	b.Run("pair", func(b *testing.B) {
		tables := make([]lcsTable, windows+1)
		for k := range tables {
			tables[k].build(win(k))
		}
		var lb lcsBuf
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % windows
			lb.pair(&tables[k], &tables[k+1])
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pair")
	})
	b.Run("lcs", func(b *testing.B) {
		var lb lcsBuf
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % windows
			lb.lcs(win(k), win(k+1))
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/pair")
	})
}
