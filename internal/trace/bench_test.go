package trace

import (
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// benchTrace builds a trace with a constant live set of live objects:
// after allocating them, each of steps steps frees a random live object,
// allocates a replacement at the freed address (as a size-class
// allocator would, so inserts land anywhere in the index) and makes
// accesses interior accesses to random live objects.
func benchTrace(live, steps, accesses int) *Trace {
	rng := xrand.New(11)
	addrs := make([]mem.Addr, live)
	sizes := make([]uint64, live)
	r := NewRecorder()
	next := mem.Addr(0x10000)
	for k := range addrs {
		sizes[k] = uint64(16 << rng.Intn(5))
		addrs[k] = next
		next += mem.Addr(sizes[k] + 16)
		r.Alloc(mem.SiteID(k%64+1), 0, addrs[k], sizes[k])
	}
	for s := 0; s < steps; s++ {
		k := rng.Intn(live)
		r.Free(addrs[k])
		r.Alloc(mem.SiteID(k%64+1), 0, addrs[k], sizes[k])
		for a := 0; a < accesses; a++ {
			j := rng.Intn(live)
			r.Access(addrs[j]+mem.Addr(rng.Uint64n(sizes[j])), 8, a&1 == 0)
		}
	}
	return r.Trace()
}

// BenchmarkAnalyze times the analyzer feed and reports ns/event.
// "large-live" holds about 25k objects live (the peak of the health
// profile) and frees them in random order; "churn" keeps 64 live and
// spends most events on allocation and free.
func BenchmarkAnalyze(b *testing.B) {
	for _, c := range []struct {
		name                  string
		live, steps, accesses int
	}{
		{"large-live", 25000, 20000, 4},
		{"churn", 64, 100000, 1},
	} {
		tr := benchTrace(c.live, c.steps, c.accesses)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = Analyze(tr)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.Events)), "ns/event")
		})
	}
}

var benchSink *Analysis
