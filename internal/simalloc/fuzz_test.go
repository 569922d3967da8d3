package simalloc

import (
	"runtime"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// Op decoding for FuzzHeap and TestHeapMatchesOracle: three bytes per
// operation (op, x, y), at most maxOps operations per input.
const (
	maxOps = 256
	// maxHuge caps the huge (>= 1<<36) mallocs per input: each one moves
	// the break by 64 GiB, which grows the index top level that
	// CheckInvariants scans after every operation by 2^18 entries.
	maxHuge = 1
)

// opSize decodes a malloc size spanning the exact bins (<= 512), the
// logarithmic bins, and a huge size. Sizes above 16 KiB are rare, so
// that most inputs keep the break, and with it the per-operation index
// scan in CheckInvariants, small.
func opSize(x, y byte, huge *int) uint64 {
	switch x % 4 {
	case 0:
		return uint64(y) * 2 // exact bins, including 0
	case 1:
		return 513 + uint64(y)*37 // first log bins
	case 2:
		if y >= 0xf0 {
			return 1<<(14+y&15) + 16 // log bins up to the last
		}
		return 513 + uint64(y)*64
	default:
		if x%64 == 3 && y >= 0xf0 && *huge < maxHuge {
			*huge++
			return 1<<36 + uint64(y&15)*16
		}
		return uint64(y) * 4
	}
}

// badAddr decodes an address that is not a live payload start — at the
// time it was chosen: an already-freed payload (which a later malloc may
// have reissued), an interior address of a live block (not 16- or
// 32-byte aligned unless y says so), one past the break, or an address
// the heap never issued.
func badAddr(x, y byte, live, freed []mem.Addr, brk mem.Addr) mem.Addr {
	switch x % 4 {
	case 0:
		if len(freed) > 0 {
			return freed[int(y)%len(freed)]
		}
	case 1:
		if len(live) > 0 {
			return live[int(y)%len(live)] + mem.Addr(y%48) + 1
		}
	case 2:
		return brk + mem.Addr(y)
	}
	return 0x10000 + mem.Addr(y)*8
}

// runHeapOps decodes data into malloc/free/realloc operations and applies
// each to the dense Heap and to the map-based oracle, failing on the
// first return value, Stats, SizeOf/Owns answer or invariant that
// differs.
func runHeapOps(t testing.TB, data []byte) {
	t.Helper()
	h, o := New(0x10000), newOracle(0x10000)
	var live, freed []mem.Addr
	huge := 0
	drop := func(addr mem.Addr) {
		for k, a := range live {
			if a == addr {
				live = append(live[:k], live[k+1:]...)
				freed = append(freed, addr)
				return
			}
		}
		t.Fatalf("freed %v, which the test did not hold live", addr)
	}
	for n := 0; n < maxOps && len(data) >= 3; n++ {
		op, x, y := data[0], data[1], data[2]
		data = data[3:]
		var addr mem.Addr // the address the op touched, for SizeOf/Owns
		switch op % 8 {
		case 0, 1, 2:
			size := opSize(x, y, &huge)
			got, want := h.Malloc(size), o.Malloc(size)
			if got != want {
				t.Fatalf("op %d: Malloc(%d) = %v, oracle %v", n, size, got, want)
			}
			live = append(live, got)
			addr = got
		case 3, 4, 5:
			if op%8 == 5 || len(live) == 0 {
				addr = badAddr(x, y, live, freed, o.brk)
			} else {
				addr = live[(int(x)<<8|int(y))%len(live)]
			}
			got, want := h.Free(addr), o.Free(addr)
			if got != want {
				t.Fatalf("op %d: Free(%v) = %v, oracle %v", n, addr, got, want)
			}
			if want {
				drop(addr)
			}
		case 6, 7:
			size := opSize(x>>2, y, &huge)
			switch {
			case op%8 == 7:
				addr = mem.NilAddr
			case len(live) > 0 && x%8 != 0:
				addr = live[int(y)%len(live)]
			default:
				addr = badAddr(x>>3, y, live, freed, o.brk)
			}
			wasLive := o.Owns(addr)
			got, gotN := h.Realloc(addr, size)
			want, wantN := o.Realloc(addr, size)
			if got != want || gotN != wantN {
				t.Fatalf("op %d: Realloc(%v, %d) = %v,%d, oracle %v,%d", n, addr, size, got, gotN, want, wantN)
			}
			if wasLive && want != addr {
				drop(addr)
			}
			if !wasLive || want != addr {
				live = append(live, want)
			}
			addr = want
		}
		if h.Stats() != o.Stats() {
			t.Fatalf("op %d: Stats = %+v, oracle %+v", n, h.Stats(), o.Stats())
		}
		if h.SizeOf(addr) != o.SizeOf(addr) || h.Owns(addr) != o.Owns(addr) {
			t.Fatalf("op %d: SizeOf/Owns(%v) = %d/%v, oracle %d/%v", n, addr,
				h.SizeOf(addr), h.Owns(addr), o.SizeOf(addr), o.Owns(addr))
		}
		if h.Brk() != o.brk {
			t.Fatalf("op %d: Brk = %v, oracle %v", n, h.Brk(), o.brk)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatalf("op %d: %v", n, err)
		}
		if err := o.CheckInvariants(); err != nil {
			t.Fatalf("op %d: oracle: %v", n, err)
		}
	}
}

// randomOps returns n encoded operations drawn from seed.
func randomOps(seed uint64, n int) []byte {
	rng := xrand.New(seed)
	data := make([]byte, 3*n)
	for i := range data {
		data[i] = byte(rng.Uint64n(256))
	}
	return data
}

// FuzzHeap: the dense Heap and the map-based oracle agree on every
// return value, Stats and SizeOf/Owns answer over arbitrary op streams,
// and the dense heap's invariants hold after every operation.
func FuzzHeap(f *testing.F) {
	// Malloc three 64-byte blocks and a guard, free the outer two and
	// then the middle one (a merge on both sides), reuse the merged block.
	f.Add([]byte{0, 0, 32, 0, 0, 32, 0, 0, 32, 0, 0, 8, 3, 0, 0, 3, 0, 1, 3, 0, 0, 0, 0, 250})
	// Double free, interior free, free past the break, realloc of a
	// freed address.
	f.Add([]byte{0, 1, 9, 3, 0, 0, 5, 0, 0, 5, 1, 3, 5, 2, 7, 6, 8, 0})
	for _, data := range heapSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runHeapOps(t, data)
	})
}

// heapSeeds returns fixed op streams: random ones, and one that puts a
// huge block between small ones, then frees and reallocs around it.
func heapSeeds() [][]byte {
	seeds := [][]byte{{
		0, 0, 40, 0, 1, 40, 0, 3, 0xf3, 0, 0, 40, 0, 2, 7,
		3, 0, 1, 3, 0, 2, 0, 3, 0xf3, 6, 12, 1, 0, 1, 9, 3, 0, 0,
	}}
	for seed := uint64(1); seed <= 12; seed++ {
		seeds = append(seeds, randomOps(seed, maxOps))
	}
	return seeds
}

// TestHeapMatchesOracle runs the fuzz differential on the seed streams,
// so plain `go test` covers it.
func TestHeapMatchesOracle(t *testing.T) {
	for _, data := range heapSeeds() {
		runHeapOps(t, data)
	}
}

// churnHeap returns a heap warmed with n live blocks of mixed exact- and
// log-bin sizes, every third one freed so later mallocs split and frees
// coalesce.
func churnHeap(n int) (*Heap, []mem.Addr, []uint64) {
	rng := xrand.New(7)
	sizes := make([]uint64, 1024)
	for i := range sizes {
		if i%4 == 3 {
			sizes[i] = 513 + rng.Uint64n(8<<10) // log bins
		} else {
			sizes[i] = 16 + rng.Uint64n(497) // exact bins
		}
	}
	h := New(0x10000)
	live := make([]mem.Addr, n)
	for i := range live {
		live[i] = h.Malloc(sizes[i%len(sizes)])
	}
	for i := 0; i < n; i += 3 {
		h.Free(live[i])
		live[i] = h.Malloc(sizes[(i*7)%len(sizes)])
	}
	return h, live, sizes
}

// TestSteadyStateZeroAllocs pins the dense heap's point: once warmed,
// malloc/free churn with splits and coalescing allocates no host memory.
func TestSteadyStateZeroAllocs(t *testing.T) {
	h, live, sizes := churnHeap(4096)
	k := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i := (k * 13) % len(live)
		h.Free(live[i])
		live[i] = h.Malloc(sizes[k%len(sizes)])
		k++
	})
	if allocs != 0 {
		t.Errorf("steady-state malloc/free allocates %.2f objects per op, want 0", allocs)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHugeMallocIndexBound: the lookup index costs host memory in
// proportion to where blocks start, not to the break, so a sparse heap
// with one 64 GiB block stays within a few MiB of index.
func TestHugeMallocIndexBound(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := New(0x10000)
	a := h.Malloc(64)
	big := h.Malloc(1 << 36)
	b := h.Malloc(64)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("heap with a 64 GiB block allocated %d host bytes, want <= 4 MiB", got)
	}
	for _, p := range []mem.Addr{a, big, b} {
		if !h.Owns(p) {
			t.Errorf("block %v not found", p)
		}
	}
	if !h.Free(big) || h.Malloc(1<<36) != big {
		t.Error("freed huge block not reused")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

var sinkAddr mem.Addr

// BenchmarkHeapChurn: one free plus one malloc per op over 4096 live
// blocks of mixed exact- and log-bin sizes, with splitting and
// coalescing.
func BenchmarkHeapChurn(b *testing.B) {
	h, live, sizes := churnHeap(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		i := (k * 13) % len(live)
		h.Free(live[i])
		live[i] = h.Malloc(sizes[k%len(sizes)])
	}
	sinkAddr = live[0]
}
