package trace

import (
	"sort"
	"testing"

	"prefix/internal/mem"
)

// sliceIndex is the reference oracle for intervalIndex: a flat sorted
// slice of starts plus a start -> interval map, with the index's
// ordered-map semantics spelled out directly (O(n) insert and remove).
type sliceIndex struct {
	starts []mem.Addr
	items  map[mem.Addr]ivl
}

func newSliceIndex() *sliceIndex { return &sliceIndex{items: make(map[mem.Addr]ivl)} }

func (x *sliceIndex) insert(addr mem.Addr, size uint64, obj *Object) {
	if size == 0 {
		size = 1
	}
	if _, dup := x.items[addr]; !dup {
		i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] >= addr })
		x.starts = append(x.starts, 0)
		copy(x.starts[i+1:], x.starts[i:])
		x.starts[i] = addr
	}
	x.items[addr] = ivl{start: addr, size: size, obj: obj}
}

func (x *sliceIndex) remove(addr mem.Addr) *Object {
	it, ok := x.items[addr]
	if !ok {
		return nil
	}
	delete(x.items, addr)
	i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] >= addr })
	x.starts = append(x.starts[:i], x.starts[i+1:]...)
	return it.obj
}

func (x *sliceIndex) find(addr mem.Addr) *Object {
	i := sort.Search(len(x.starts), func(i int) bool { return x.starts[i] > addr })
	if i == 0 {
		return nil
	}
	it := x.items[x.starts[i-1]]
	if uint64(addr-it.start) < it.size {
		return it.obj
	}
	return nil
}

// Index operations decoded from fuzz bytes, four bytes each: an opcode
// and three arguments.
const (
	opInsert    = iota // insert(addr, size)
	opRemove           // remove(addr)
	opFind             // find(addr)
	opInsertRun        // insert n intervals from addr on, stride apart
	opRemoveRun        // remove n starts from addr on, stride apart
	numIndexOps
)

// indexOp encodes one operation; see runIndexOps for the decoding.
func indexOp(op, cluster, off, arg byte) []byte { return []byte{op, cluster, off, arg} }

// runIndexOps decodes data into index operations and applies each to
// both the blocked index and the oracle, failing on the first return
// value or length that differs. Addresses fall into four clusters of
// 4 KiB, so starts collide, intervals overlap, and runs fill blocks
// until they split and then empty them again.
func runIndexOps(t *testing.T, data []byte) {
	fast, ref := newIntervalIndex(), newSliceIndex()
	var touched []mem.Addr
	nextID := mem.ObjectID(1)
	newObj := func() *Object {
		o := &Object{ID: nextID}
		nextID++
		return o
	}
	for ; len(data) >= 4; data = data[4:] {
		op, c, off, arg := data[0]%numIndexOps, data[1], data[2], data[3]
		addr := mem.Addr(uint64(c&3)<<12 | uint64(off)<<4 | uint64(c>>2)&0xf)
		stride := mem.Addr(c>>2&0xf+1) * 8
		switch op {
		case opInsert:
			o := newObj()
			fast.insert(addr, uint64(arg), o)
			ref.insert(addr, uint64(arg), o)
			touched = append(touched, addr, addr+mem.Addr(arg))
		case opRemove:
			if got, want := fast.remove(addr), ref.remove(addr); got != want {
				t.Fatalf("remove(%v) = %v, oracle %v", addr, got, want)
			}
		case opFind:
			if got, want := fast.find(addr), ref.find(addr); got != want {
				t.Fatalf("find(%v) = %v, oracle %v", addr, got, want)
			}
		case opInsertRun:
			for k := 0; k <= int(arg); k++ {
				a, o := addr+mem.Addr(k)*stride, newObj()
				fast.insert(a, uint64(stride)-uint64(k&1), o)
				ref.insert(a, uint64(stride)-uint64(k&1), o)
				touched = append(touched, a)
			}
		case opRemoveRun:
			for k := 0; k <= int(arg); k++ {
				a := addr + mem.Addr(k)*stride
				if got, want := fast.remove(a), ref.remove(a); got != want {
					t.Fatalf("remove(%v) = %v, oracle %v", a, got, want)
				}
			}
		}
		if fast.len() != len(ref.starts) {
			t.Fatalf("len() = %d, oracle %d", fast.len(), len(ref.starts))
		}
	}
	for _, a := range touched {
		for _, q := range []mem.Addr{a - 1, a, a + 1} {
			if got, want := fast.find(q), ref.find(q); got != want {
				t.Fatalf("final find(%v) = %v, oracle %v", q, got, want)
			}
		}
	}
}

// FuzzIntervalIndex checks the blocked interval index against the
// sorted-slice oracle on arbitrary insert/remove/find streams.
func FuzzIntervalIndex(f *testing.F) {
	cat := func(ops ...[]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op...)
		}
		return b
	}
	// Duplicate starts replace, zero sizes store as 1.
	f.Add(cat(indexOp(opInsert, 0, 5, 32), indexOp(opInsert, 0, 5, 0),
		indexOp(opFind, 0, 5, 0), indexOp(opFind, 4, 5, 0), indexOp(opRemove, 0, 5, 0)))
	// Removes of absent and interior addresses; overlapping intervals.
	f.Add(cat(indexOp(opRemove, 1, 9, 0), indexOp(opInsert, 1, 9, 200),
		indexOp(opInsert, 1, 10, 40), indexOp(opRemove, 5, 9, 0),
		indexOp(opFind, 1, 12, 0), indexOp(opFind, 1, 20, 0), indexOp(opRemove, 1, 10, 0),
		indexOp(opFind, 1, 12, 0)))
	// Runs that split blocks, then empty them, then refill.
	f.Add(cat(indexOp(opInsertRun, 0, 0, 255), indexOp(opInsertRun, 2, 0, 255),
		indexOp(opInsert, 0, 0, 0), indexOp(opRemoveRun, 0, 0, 200),
		indexOp(opFind, 0, 100, 0), indexOp(opRemoveRun, 2, 0, 255),
		indexOp(opInsertRun, 0, 0, 255), indexOp(opFind, 0, 3, 0)))
	// A full block splits on an insert that lands in its lower half;
	// the new upper block's first start (run entry intervalBlock/2, at
	// 16 + 8·intervalBlock/2 = 16·(1+intervalBlock/4)) must be found.
	f.Add(cat(indexOp(opInsertRun, 0, 1, intervalBlock-1), indexOp(opInsert, 0, 0, 8),
		indexOp(opFind, 0, 1+intervalBlock/4, 0)))
	// Interleaved strides in one cluster: inserts land mid-block.
	f.Add(cat(indexOp(opInsertRun, 0x7c, 0, 255), indexOp(opInsertRun, 0x04, 1, 255),
		indexOp(opRemoveRun, 0x0c, 0, 255), indexOp(opInsertRun, 0x3c, 2, 255)))
	f.Fuzz(runIndexOps)
}

func TestIntervalIndexMatchesOracleRandom(t *testing.T) {
	// A long pseudo-random stream, so every `go test` run exercises
	// splits and drops well past the fuzz seeds: the first half grows
	// the index, the second half only removes and finds.
	const ops = 4000
	data := make([]byte, 4*ops)
	x := uint32(1)
	for i := range data {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		data[i] = byte(x)
		if i%4 == 0 && i >= 4*ops/2 {
			data[i] = []byte{opRemove, opFind, opRemoveRun}[x%3]
		}
	}
	runIndexOps(t, data)
}
