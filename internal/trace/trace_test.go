package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

func record() *Trace {
	r := NewRecorder()
	r.Alloc(1, 0xabc, 0x1000, 64) // obj1
	r.Access(0x1000, 8, false)
	r.Access(0x1020, 8, true)     // interior access to obj1
	r.Alloc(1, 0xabc, 0x2000, 32) // obj2, site1 instance 2
	r.Alloc(2, 0xdef, 0x3000, 16) // obj3
	r.Access(0x2000, 8, false)
	r.Free(0x1000)
	r.Alloc(2, 0xdef, 0x1000, 48) // obj4 reuses obj1's address
	r.Access(0x1000, 8, false)
	r.Realloc(0x3000, 0x4000, 128)
	r.Access(0x4000, 8, true)
	r.AddInstr(1234)
	return r.Trace()
}

func TestAnalyzeObjectIdentity(t *testing.T) {
	a := Analyze(record())
	if len(a.Objects) != 4 {
		t.Fatalf("objects = %d, want 4", len(a.Objects))
	}
	o1 := a.Object(1)
	if o1.Site != 1 || o1.Instance != 1 || o1.Size != 64 {
		t.Errorf("obj1 = %+v", o1)
	}
	if o1.Accesses != 2 || o1.Reads != 1 || o1.Writes != 1 {
		t.Errorf("obj1 accesses = %d r=%d w=%d", o1.Accesses, o1.Reads, o1.Writes)
	}
	if o1.FreeAt < 0 {
		t.Error("obj1 should be freed")
	}
	// Address reuse: obj4 lives at obj1's address but is distinct.
	o4 := a.Object(4)
	if o4.Site != 2 || o4.Instance != 2 || o4.Accesses != 1 {
		t.Errorf("obj4 = %+v", o4)
	}
}

func TestAnalyzeRealloc(t *testing.T) {
	a := Analyze(record())
	o3 := a.Object(3)
	if o3.FinalSize != 128 {
		t.Errorf("obj3 final size = %d, want 128", o3.FinalSize)
	}
	if o3.Accesses != 1 {
		t.Errorf("access after realloc not attributed: %d", o3.Accesses)
	}
	if o3.Addr != 0x4000 {
		t.Errorf("obj3 addr = %v", o3.Addr)
	}
}

func TestAnalyzeRefs(t *testing.T) {
	a := Analyze(record())
	want := []mem.ObjectID{1, 1, 2, 4, 3}
	if len(a.Refs) != len(want) {
		t.Fatalf("refs = %v, want %v", a.Refs, want)
	}
	for i, id := range want {
		if a.Refs[i] != id {
			t.Fatalf("refs[%d] = %v, want %v", i, a.Refs[i], id)
		}
	}
	if a.HeapAccesses != 5 || a.TotalAccesses != 5 {
		t.Errorf("accesses: heap=%d total=%d", a.HeapAccesses, a.TotalAccesses)
	}
	if len(a.RefAt) != len(a.Refs) {
		t.Error("RefAt length mismatch")
	}
}

func TestAnalyzeNonHeapAccess(t *testing.T) {
	r := NewRecorder()
	r.Alloc(1, 0, 0x1000, 16)
	r.Access(0x9000, 8, false) // no live object there
	a := Analyze(r.Trace())
	if a.HeapAccesses != 0 || a.TotalAccesses != 1 {
		t.Errorf("heap=%d total=%d", a.HeapAccesses, a.TotalAccesses)
	}
	if a.Refs != nil || a.RefAt != nil {
		t.Errorf("no heap access: Refs=%v RefAt=%v, want nil slices", a.Refs, a.RefAt)
	}
}

func TestAnalyzeSiteTables(t *testing.T) {
	a := Analyze(record())
	if a.SiteAllocs[1] != 2 || a.SiteAllocs[2] != 2 {
		t.Errorf("site allocs: %v", a.SiteAllocs)
	}
	if got := a.ObjectBySiteInstance(1, 2); got == nil || got.ID != 2 {
		t.Errorf("ObjectBySiteInstance(1,2) = %v", got)
	}
	if a.ObjectBySiteInstance(1, 3) != nil {
		t.Error("instance 3 should not exist")
	}
	if a.ObjectBySiteInstance(9, 1) != nil {
		t.Error("unknown site should return nil")
	}
}

func TestAnalyzeLiveness(t *testing.T) {
	a := Analyze(record())
	if a.MaxLive != 3 {
		t.Errorf("MaxLive = %d, want 3", a.MaxLive)
	}
	if a.SiteMaxLive[1] != 2 {
		t.Errorf("site1 max live = %d, want 2", a.SiteMaxLive[1])
	}
	if a.Instr != 1234 {
		t.Errorf("instr = %d", a.Instr)
	}
}

func TestObjectLookupBounds(t *testing.T) {
	a := Analyze(record())
	if a.Object(0) != nil || a.Object(5) != nil {
		t.Error("out-of-range object lookup should be nil")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	tr := record()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Instr != tr.Instr || len(got.Events) != len(tr.Events) {
		t.Fatalf("roundtrip mismatch: %d events, instr %d", len(got.Events), got.Instr)
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestDecodeDoctoredEventCount(t *testing.T) {
	// A header may claim any event count — it is untrusted input. A
	// doctored count of 2^40 followed by a truncated body must fail
	// cleanly without preallocating the claimed amount.
	var buf bytes.Buffer
	buf.WriteString(magic)
	w := func(v uint64) {
		var tmp [binary.MaxVarintLen64]byte
		buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
	}
	w(version) // version
	w(0)       // instr
	w(1 << 40) // eventCount: absurd
	buf.WriteByte(byte(KindFree))
	buf.WriteByte(0) // one real event, then EOF
	tr, err := Read(&buf)
	if err == nil {
		t.Fatalf("doctored header accepted: %d events", len(tr.Events))
	}
}

func TestDecodeDoctoredCountBoundsPrealloc(t *testing.T) {
	var buf bytes.Buffer
	if err := record().Write(&buf); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := sr.capHint(); got != len(record().Events) {
		t.Errorf("capHint = %d, want declared count %d", got, len(record().Events))
	}
	// Forge a reader with a hostile declared count; the hint must cap.
	sr.declared = 1 << 40
	if got := sr.capHint(); got != maxPreallocEvents {
		t.Errorf("capHint = %d, want cap %d", got, maxPreallocEvents)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOPE whatever"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestEncodeDecodeRandomTraces(t *testing.T) {
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		r := NewRecorder()
		var live []mem.Addr
		addr := mem.Addr(0x1000)
		for i := 0; i < 200; i++ {
			switch rng.Intn(4) {
			case 0:
				r.Alloc(mem.SiteID(rng.Intn(5)+1), mem.StackSig(rng.Uint64()), addr, rng.Uint64n(256))
				live = append(live, addr)
				addr += 0x100
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					r.Free(live[i])
					live = append(live[:i], live[i+1:]...)
				}
			case 2:
				if len(live) > 0 {
					old := live[rng.Intn(len(live))]
					r.Realloc(old, addr, rng.Uint64n(512))
					addr += 0x100
				}
			default:
				r.Access(mem.Addr(rng.Uint64n(uint64(addr))), 8, rng.Bool(0.5))
			}
		}
		tr := r.Trace()
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestZigzagRoundtrip(t *testing.T) {
	f := func(v uint64) bool { return unzigzag(zigzag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalIndexInteriorLookup(t *testing.T) {
	x := newIntervalIndex()
	o := &Object{ID: 1}
	x.insert(0x1000, 64, o)
	if x.find(0x1000) != o || x.find(0x103f) != o {
		t.Error("containment lookup failed")
	}
	if x.find(0x1040) != nil || x.find(0xfff) != nil {
		t.Error("out-of-range lookup should miss")
	}
	if x.remove(0x1000) != o {
		t.Error("remove returned wrong object")
	}
	if x.find(0x1000) != nil {
		t.Error("removed interval still found")
	}
	if x.len() != 0 {
		t.Error("index not empty")
	}
}

func TestIntervalIndexMany(t *testing.T) {
	x := newIntervalIndex()
	objs := make([]*Object, 100)
	for i := range objs {
		objs[i] = &Object{ID: mem.ObjectID(i + 1)}
		x.insert(mem.Addr(0x1000+i*0x100), 0x80, objs[i])
	}
	for i := range objs {
		base := mem.Addr(0x1000 + i*0x100)
		if x.find(base+0x40) != objs[i] {
			t.Fatalf("interior lookup %d failed", i)
		}
		if x.find(base+0x80) != nil {
			t.Fatalf("gap lookup %d should miss", i)
		}
	}
}

// TestAnalyzerFeedAccessAllocatesNothing pins the access path: once the
// first reference-string chunk exists, an access that hits a live object
// (here one of 1000, so the lookup crosses several index blocks) costs
// no allocation.
func TestAnalyzerFeedAccessAllocatesNothing(t *testing.T) {
	an := NewAnalyzer()
	for k := 0; k < 1000; k++ {
		an.Feed(Event{Kind: KindAlloc, Site: 1, Addr: mem.Addr(0x1000 + 64*k), Size: 48})
	}
	hit := Event{Kind: KindAccess, Addr: 0x1000 + 64*700 + 40, Size: 8}
	an.Feed(hit)
	if n := testing.AllocsPerRun(100, func() { an.Feed(hit) }); n != 0 {
		t.Errorf("feeding a heap access allocated %v times per event, want 0", n)
	}
	if a := an.Finish(); len(a.Refs) != 102 || a.Refs[101] != 701 {
		t.Errorf("refs = %d entries ending in %v, want 102 ending in 701", len(a.Refs), a.Refs[len(a.Refs)-1])
	}
}
