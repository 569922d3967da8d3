package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"prefix/internal/mem"
	"prefix/internal/xrand"
)

// drain pulls every event out of a source, failing the test on a decode
// error.
func drain(t *testing.T, src Source) []Event {
	t.Helper()
	var evs []Event
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		evs = append(evs, ev)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source error: %v", err)
	}
	return evs
}

// writeChunked records tr through a SpillRecorder with the given chunk
// size and returns the encoded bytes.
func writeChunked(t testing.TB, tr *Trace, chunkEvents int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sp, err := NewSpillRecorder(&buf, chunkEvents)
	if err != nil {
		t.Fatal(err)
	}
	sp.RecordBatch(tr.Events)
	sp.AddInstr(tr.Instr)
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamRoundtripChunkSizes(t *testing.T) {
	tr := record() // 11 events
	for _, chunk := range []int{1, 3, 4, 12, 100} {
		data := writeChunked(t, tr, chunk)
		sr, err := NewStreamReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		got := drain(t, sr)
		if !reflect.DeepEqual(got, tr.Events) {
			t.Fatalf("chunk %d: events differ:\n got %+v\nwant %+v", chunk, got, tr.Events)
		}
		if sr.Instr() != tr.Instr {
			t.Fatalf("chunk %d: instr = %d, want %d", chunk, sr.Instr(), tr.Instr)
		}
		wantChunks := uint64((len(tr.Events) + chunk - 1) / chunk)
		if sr.Chunks() != wantChunks {
			t.Fatalf("chunk %d: chunks = %d, want %d", chunk, sr.Chunks(), wantChunks)
		}
	}
}

// TestStreamWriterStats: the spill recorder counts what it wrote, in
// chunk frames of at most its chunk size.
func TestStreamWriterStats(t *testing.T) {
	tr := record()
	sp, err := NewSpillRecorder(io.Discard, 5)
	if err != nil {
		t.Fatal(err)
	}
	sp.RecordBatch(tr.Events[:7])
	if s := sp.Stats(); s.Chunks != 1 || s.PeakBufferedEvents != 5 {
		t.Errorf("mid-run stats = %+v, want 1 chunk spilled and a peak of 5", s)
	}
	sp.RecordBatch(tr.Events[7:])
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	s := sp.Stats()
	if s.Events != uint64(len(tr.Events)) {
		t.Errorf("Events = %d, want %d", s.Events, len(tr.Events))
	}
	if s.Chunks != 3 { // 11 events at chunk size 5 -> 5+5+1
		t.Errorf("Chunks = %d, want 3", s.Chunks)
	}
	if s.PeakBufferedEvents != 5 {
		t.Errorf("PeakBufferedEvents = %d, want 5", s.PeakBufferedEvents)
	}
}

func TestStreamEmptyTrace(t *testing.T) {
	data := writeChunked(t, &Trace{Instr: 77}, 4)
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if evs := drain(t, sr); len(evs) != 0 {
		t.Fatalf("events = %+v, want none", evs)
	}
	if sr.Instr() != 77 {
		t.Errorf("instr = %d, want 77", sr.Instr())
	}
}

func TestReadAcceptsChunkedFormat(t *testing.T) {
	tr := record()
	got, err := Read(bytes.NewReader(writeChunked(t, tr, 4)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Instr != tr.Instr || !reflect.DeepEqual(got.Events, tr.Events) {
		t.Fatalf("Read over chunked bytes differs from source trace")
	}
}

func TestStreamTruncatedChunk(t *testing.T) {
	data := writeChunked(t, record(), 4)
	sr, err := NewStreamReader(bytes.NewReader(data[:len(data)-6]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := sr.Next(); !ok {
			break
		}
	}
	if sr.Err() == nil {
		t.Fatal("truncated chunked stream decoded cleanly")
	}
}

func TestStreamOverlongChunkHeaderRejected(t *testing.T) {
	// A chunk claiming more events than the declared chunk size is
	// corrupt and must fail without trusting the count.
	data := writeChunked(t, &Trace{}, 2)
	// Header is "PFXT" + version varint + chunkSize varint; splice in a
	// bogus chunk frame claiming 100 events (one varint byte).
	head := data[:len(magic)+2]
	doctored := append(append([]byte(nil), head...), 100)
	sr, err := NewStreamReader(bytes.NewReader(doctored))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sr.Next(); ok {
		t.Fatal("Next succeeded on bogus chunk header")
	}
	if err := sr.Err(); err == nil || !strings.Contains(err.Error(), "above the declared chunk size") {
		t.Fatalf("err = %v, want chunk-size violation", err)
	}
}

// TestTraceSourceSink: a stream reader replays a trace file, and a
// Recorder fed from it records the same trace.
func TestTraceSourceSink(t *testing.T) {
	tr := record()
	sink := NewRecorder()
	src, err := NewStreamReader(bytes.NewReader(writeChunked(t, tr, 4)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		sink.RecordBatch([]Event{ev})
	}
	if err := src.Err(); err != nil {
		t.Fatal(err)
	}
	sink.AddInstr(src.Instr())
	got := sink.Trace()
	if !reflect.DeepEqual(got.Events, tr.Events) || got.Instr != tr.Instr {
		t.Fatal("Trace source->recorder copy differs")
	}
}

func TestSpillRecorderMatchesRecorder(t *testing.T) {
	// Feed both recorders the same batches; the spill file must decode
	// to exactly the in-memory trace.
	mm := NewRecorder()
	var buf bytes.Buffer
	sp, err := NewSpillRecorder(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	evs := []Event{
		{Kind: KindAlloc, Site: 1, Stack: 0xabc, Addr: 0x1000, Size: 64},
		{Kind: KindAccess, Addr: 0x1000, Size: 8},
		{Kind: KindAccess, Addr: 0x1020, Size: 8, Write: true},
		{Kind: KindAlloc, Site: 2, Stack: 0xdef, Addr: 0x2000, Size: 32},
		{Kind: KindFree, Addr: 0x1000},
		{Kind: KindRealloc, Addr: 0x2000, Addr2: 0x3000, Size: 96},
		{Kind: KindAccess, Addr: 0x3000, Size: 8, Write: true},
	}
	for _, rec := range []EventRecorder{mm, sp} {
		rec.RecordBatch(evs[:2])
		rec.RecordBatch(evs[2:])
		rec.AddInstr(4321)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sp.Err(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := mm.Trace()
	if !reflect.DeepEqual(got.Events, want.Events) || got.Instr != want.Instr {
		t.Fatalf("spill file decodes to:\n %+v\nwant %+v", got, want)
	}
	s := sp.Stats()
	if s.Events != uint64(len(want.Events)) || s.PeakBufferedEvents > 3 || s.Chunks == 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSpillRecorderLatchesWriteError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.pfxt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpillRecorder(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // every subsequent chunk flush fails
	for i := 0; i < 10; i++ {
		sp.RecordBatch([]Event{{Kind: KindAccess, Addr: 0x1000, Size: 8}}) // must not panic
	}
	if sp.Err() == nil && sp.Close() == nil {
		t.Fatal("write error on closed file never surfaced")
	}
}

func TestAnalyzeSourceMatchesAnalyze(t *testing.T) {
	tr := record()
	want := Analyze(tr)
	sr, err := NewStreamReader(bytes.NewReader(writeChunked(t, tr, 4)))
	if err != nil {
		t.Fatal(err)
	}
	fromStream, err := AnalyzeSource(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromStream, want) {
		t.Fatal("AnalyzeSource(stream) differs from Analyze")
	}
	if want.Events != len(tr.Events) {
		t.Errorf("Analysis.Events = %d, want %d", want.Events, len(tr.Events))
	}
}

func TestAnalyzeSourceTruncatedStreamErrors(t *testing.T) {
	data := writeChunked(t, record(), 4)
	sr, err := NewStreamReader(bytes.NewReader(data[:len(data)-6]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeSource(sr); err == nil {
		t.Fatal("AnalyzeSource accepted a truncated stream")
	}
}

// diffStreamed checks streamed = in-memory for one trace: AnalyzeSource
// over the chunked container must equal Analyze at every chunk size.
func diffStreamed(t *testing.T, tr *Trace) {
	t.Helper()
	want := Analyze(tr)
	for _, chunk := range []int{1, 3, 64} {
		sr, err := NewStreamReader(bytes.NewReader(writeChunked(t, tr, chunk)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := AnalyzeSource(sr)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk %d: streamed analysis differs from Analyze", chunk)
		}
	}
}

// adversarialTrace builds a fixture of awkward object lifetimes:
// reallocs that move an object into another site's address range,
// duplicate live base addresses where the newer allocation shadows the
// older, a realloc landing exactly on another object's base, and
// metadata events for addresses the heap never allocated.
func adversarialTrace() *Trace {
	r := NewRecorder()

	r.Alloc(1, 0xa1, 0x1000, 64)
	r.Alloc(2, 0xb2, 0x2000, 64)
	r.Access(0x1010, 8, false) // obj1 interior
	r.Access(0x2020, 8, true)  // obj2 interior

	// Realloc moves obj1 right next to obj2, then it is accessed and
	// freed at the new address. The index must track the moved interval
	// or later finds diverge.
	r.Realloc(0x1000, 0x2100, 32)
	r.Access(0x2110, 8, false) // obj1 after the move
	r.Access(0x1010, 8, false) // old address: heap miss now
	r.Free(0x2100)

	// Duplicate live base address: obj3 (site 3) is shadowed by obj4
	// (site 4) at the same base. Accesses attribute to the newer
	// object; the one free removes the one interval, so the address
	// then misses even though obj3 was never freed.
	r.Alloc(3, 0xc3, 0x5000, 48)
	r.Access(0x5008, 8, false) // obj3
	r.Alloc(4, 0xd4, 0x5000, 16)
	r.Access(0x5008, 8, true) // obj4 shadows obj3
	r.Free(0x5000)
	r.Access(0x5008, 8, false) // miss: the interval is gone

	// Realloc landing exactly on another live base: obj6 (site 6) moves
	// onto obj5's (site 5) base address and replaces its interval.
	r.Alloc(5, 0xe5, 0x7000, 64)
	r.Alloc(6, 0xf6, 0x8000, 64)
	r.Realloc(0x8000, 0x7000, 24)
	r.Access(0x7004, 8, false) // obj6 now owns the base
	r.Free(0x7000)

	// Metadata events for addresses the heap never allocated: both are
	// no-ops.
	r.Free(0x9999)
	r.Realloc(0xaaaa, 0xbbbb, 8)
	r.Access(0xbbbb, 8, false) // still a miss

	// Zero-size allocation clamps to a one-byte interval.
	r.Alloc(7, 0x17, 0xc000, 0)
	r.Access(0xc000, 1, false)

	// A second instance for site 1 keeps per-site instance numbering in
	// play after the moves.
	r.Alloc(1, 0xa1, 0xd000, 64)
	r.Access(0xd03f, 8, true) // last byte of obj8

	r.AddInstr(4321)
	return r.Trace()
}

// TestAnalyzeSourceAdversarialStraddle runs the streamed = in-memory
// differential over the adversarial lifetime fixture.
func TestAnalyzeSourceAdversarialStraddle(t *testing.T) {
	diffStreamed(t, adversarialTrace())
}

// TestAnalyzeSourceMatchesAnalyzeRandom runs the streamed = in-memory
// differential over deterministic random traces heavy on realloc churn
// and address reuse.
func TestAnalyzeSourceMatchesAnalyzeRandom(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := xrand.New(seed)
		r := NewRecorder()
		var live []mem.Addr
		addr := mem.Addr(0x1000)
		for i := 0; i < 2000; i++ {
			switch rng.Intn(10) {
			case 0, 1:
				r.Alloc(mem.SiteID(rng.Intn(9)+1), mem.StackSig(rng.Uint64()), addr, rng.Uint64n(256))
				live = append(live, addr)
				addr += 0x40
			case 2:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					r.Free(live[k])
					live = append(live[:k], live[k+1:]...)
				}
			case 3:
				if len(live) > 0 {
					k := rng.Intn(len(live))
					r.Realloc(live[k], addr, rng.Uint64n(512))
					live[k] = addr
					addr += 0x40
				}
			case 4:
				// Shadowing alloc on a live base address.
				if len(live) > 0 {
					base := live[rng.Intn(len(live))]
					r.Alloc(mem.SiteID(rng.Intn(9)+1), mem.StackSig(rng.Uint64()), base, rng.Uint64n(64))
				}
			default:
				r.Access(mem.Addr(rng.Uint64n(uint64(addr))), 8, rng.Bool(0.5))
			}
		}
		r.AddInstr(rng.Uint64n(1 << 20))
		diffStreamed(t, r.Trace())
	}
}

// TestStreamBoundedMemoryLargeTrace is the acceptance check for the
// streaming pipeline: a >10M-event run recorded through the spill
// recorder must keep the peak trace buffer at one chunk, and the
// resulting stream must analyze to the expected object population.
func TestStreamBoundedMemoryLargeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-event stream test skipped in -short mode")
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "big.pfxt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	const chunk = 1 << 14
	rec, err := NewSpillRecorder(f, chunk)
	if err != nil {
		t.Fatal(err)
	}

	// 1M rounds of alloc + 9 accesses + free: >10M events with a live
	// set of one object, so the analyzer side stays small too.
	const rounds = 1_000_000
	round := make([]Event, 0, 11)
	for i := 0; i < rounds; i++ {
		addr := mem.Addr(0x1000 + uint64(i%64)*0x100)
		round = append(round[:0], Event{Kind: KindAlloc, Site: mem.SiteID(i%7 + 1), Stack: mem.StackSig(i % 13), Addr: addr, Size: 128})
		for j := 0; j < 9; j++ {
			round = append(round, Event{Kind: KindAccess, Addr: addr + mem.Addr(j*8), Size: 8, Write: j%2 == 0})
		}
		rec.RecordBatch(append(round, Event{Kind: KindFree, Addr: addr}))
	}
	rec.AddInstr(rounds * 11)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	s := rec.Stats()
	if want := uint64(rounds * 11); s.Events != want {
		t.Fatalf("recorded %d events, want %d", s.Events, want)
	}
	if s.PeakBufferedEvents > chunk {
		t.Fatalf("peak buffered events %d exceeds the chunk budget %d", s.PeakBufferedEvents, chunk)
	}
	if s.Chunks < rounds*11/chunk {
		t.Fatalf("chunks spilled = %d, want at least %d", s.Chunks, rounds*11/chunk)
	}

	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	sr, err := NewStreamReader(f)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeSource(sr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Objects) != rounds {
		t.Errorf("objects = %d, want %d", len(a.Objects), rounds)
	}
	if a.HeapAccesses != rounds*9 {
		t.Errorf("heap accesses = %d, want %d", a.HeapAccesses, rounds*9)
	}
	if a.MaxLive != 1 {
		t.Errorf("max live = %d, want 1", a.MaxLive)
	}
	if a.Instr != rounds*11 {
		t.Errorf("instr = %d", a.Instr)
	}
}

// drainStream reads every event of data through a StreamReader and
// returns its error.
func drainStream(data []byte) error {
	sr, err := NewStreamReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, ok := sr.Next(); !ok {
			return sr.Err()
		}
	}
}

// TestTruncatedStreamErrors cuts a multi-chunk stream at every byte
// offset. Every cut must fail in both readers with an error that names
// the trace layer and never reads as a clean end of stream.
func TestTruncatedStreamErrors(t *testing.T) {
	data := writeChunked(t, record(), 4) // 11 events -> 3 chunks
	check := func(reader string, off int, err error) {
		t.Helper()
		switch {
		case err == nil:
			t.Errorf("cut at %d/%d: %s accepted the truncated stream", off, len(data), reader)
		case !strings.HasPrefix(err.Error(), "trace: "):
			t.Errorf("cut at %d: %s error %q does not start with \"trace: \"", off, reader, err)
		case errors.Is(err, io.EOF):
			t.Errorf("cut at %d: %s error %q is io.EOF", off, reader, err)
		}
	}
	for off := 0; off < len(data); off++ {
		_, err := Read(bytes.NewReader(data[:off]))
		check("Read", off, err)
		check("StreamReader", off, drainStream(data[:off]))
	}
}

// Old container versions, also FuzzRead seeds: a one-event version-1
// file (header-counted) and an empty version-3 stream (indexed frames).
var (
	v1File = []byte("PFXT\x01\x05\x01\x02\x00")
	v3File = []byte("PFXT\x03\x04\x00\x05")
)

// TestOldContainerVersionsRejected: version-1 and version-3 files fail
// closed with a request to re-record them, in both readers.
func TestOldContainerVersionsRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		data []byte
		ver  int
	}{
		{"v1", v1File, 1},
		{"v3", v3File, 3},
		// The committed FuzzRead corpus entry, a doctored version-1 file.
		{"corpus 8b22636f30d637d9", []byte("PFXT\x01\t\xc9\xc9\xc9\xc9\xc9\v"), 1},
	} {
		want := fmt.Sprintf("trace: container version %d is no longer supported; re-record with prefix-trace", c.ver)
		if _, err := Read(bytes.NewReader(c.data)); err == nil || err.Error() != want {
			t.Errorf("%s: Read err = %v, want %q", c.name, err, want)
		}
		if err := drainStream(c.data); err == nil || err.Error() != want {
			t.Errorf("%s: StreamReader err = %v, want %q", c.name, err, want)
		}
	}
}
