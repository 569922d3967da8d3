package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"prefix/internal/obs"
)

// This file is the streaming half of the trace layer. The in-memory
// *Trace stays the reference implementation; a trace file is written
// incrementally by the chunked StreamWriter (which the SpillRecorder
// feeds) and read back through the Source pull iterator, so traces with
// tens of millions of events never materialize the whole stream.
//
// The chunked stream format (version 2 of the PFXT container) reuses the
// version-1 event encoding byte for byte — the delta-encoder state runs
// continuously across chunk boundaries — and frames events into chunks
// of at most the writer's configured size, so both ends hold one chunk
// at most:
//
//	magic "PFXT" | version=2 | chunkSize |
//	  chunk*: eventCount (1..chunkSize) | events... |
//	  terminator: 0 | instr
//
// The instruction count moves from the header to the terminator because
// a spilling recorder only learns it when the run finishes.
//
// Version 3 — what the StreamWriter emits — is version 2 plus an indexed
// chunk frame: each chunk additionally carries its encoded byte length
// and the delta-decoder handoff (the per-kind previous addresses at the
// chunk's first event), so each chunk is self-describing:
//
//	magic "PFXT" | version=3 | chunkSize |
//	  chunk*: eventCount (1..chunkSize) | byteLen |
//	          prevAddr[Alloc] prevAddr[Free] prevAddr[Realloc] prevAddr[Access] |
//	          events... (byteLen bytes)
//	  terminator: 0 | instr
//
// The reader cross-checks the recorded handoff against its own running
// decoder state, so a writer bug in the handoff snapshot can never go
// unnoticed.

// Source is a pull iterator over an event stream in trace order.
type Source interface {
	// Next returns the next event; ok=false ends the stream. After a
	// false return, Err distinguishes clean end-of-stream from a decode
	// error.
	Next() (ev Event, ok bool)
	// Err returns the first error the source hit, or nil.
	Err() error
	// Instr returns the total dynamic instruction count of the traced
	// run. It is guaranteed valid only after Next has returned false
	// (chunked files carry it in the stream terminator).
	Instr() uint64
}

// EventRecorder is the write interface the machine layer feeds during a
// profiled run: the machine batches its events and hands each batch
// over in one call. *Recorder (in-memory), *SpillRecorder (bounded
// memory) and *Analyzer (analysis as the run goes, no trace kept)
// implement it.
type EventRecorder interface {
	// RecordBatch appends evs, in trace order. The recorder must not
	// retain evs; the caller reuses its storage.
	RecordBatch(evs []Event)
	// AddInstr accumulates the run's dynamic instruction count.
	AddInstr(n uint64)
}

// RecorderStats describes what a recorder captured and how much of it
// was ever resident: Events is the total recorded, Chunks how many
// fixed-size chunks were spilled to the backing writer (always zero for
// the in-memory recorder), and PeakBufferedEvents the largest number of
// events simultaneously buffered in memory — the whole trace for the
// in-memory recorder, at most one chunk for the spilling one, none for
// the analyzer.
type RecorderStats struct {
	Events             uint64
	Chunks             uint64
	PeakBufferedEvents int
}

// Publish reports the recorder statistics into reg under the given
// label pairs. Nil-safe like every obs entry point.
func (s RecorderStats) Publish(reg *obs.Registry, kv ...string) {
	if reg == nil {
		return
	}
	reg.Counter("prefix_trace_recorded_events_total", kv...).Add(s.Events)
	reg.Counter("prefix_trace_spilled_chunks_total", kv...).Add(s.Chunks)
	reg.Gauge("prefix_trace_peak_buffered_events", kv...).Set(float64(s.PeakBufferedEvents))
}

// --- In-memory Trace as Source ----------------------------------------

// Source returns an iterator over the in-memory events.
func (t *Trace) Source() Source { return &sliceSource{t: t} }

type sliceSource struct {
	t *Trace
	i int
}

func (s *sliceSource) Next() (Event, bool) {
	if s.i >= len(s.t.Events) {
		return Event{}, false
	}
	ev := s.t.Events[s.i]
	s.i++
	return ev, true
}

func (s *sliceSource) Err() error    { return nil }
func (s *sliceSource) Instr() uint64 { return s.t.Instr }

var (
	_ EventRecorder = (*Recorder)(nil)
	_ EventRecorder = (*SpillRecorder)(nil)
	_ EventRecorder = (*Analyzer)(nil)
)

// --- Chunked stream writer --------------------------------------------

// DefaultChunkEvents is the default chunk size of the streaming writer
// and the spill recorder: the maximum number of events buffered in
// memory before a chunk is flushed to the backing writer.
const DefaultChunkEvents = 1 << 16

// StreamWriter writes the chunked stream format incrementally. Events
// are encoded into an in-memory chunk as they arrive; when the chunk
// holds chunkEvents events it is framed and flushed, so the writer never
// buffers more than one chunk.
type StreamWriter struct {
	w           *bufio.Writer
	enc         eventEncoder
	chunk       bytes.Buffer // encoded bytes of the open chunk
	chunkEvents int
	n           int // events in the open chunk
	// handoff is the delta-encoder state at the open chunk's first
	// event, snapshotted at every chunk boundary; the version-3 frame
	// records it so chunks decode independently.
	handoff [5]uint64
	instr   uint64
	stats   RecorderStats
	closed  bool
	err     error
}

// NewStreamWriter starts a chunked stream on w. chunkEvents is the
// memory budget in events per chunk; values < 1 select
// DefaultChunkEvents. The stream is invalid until Close succeeds.
func NewStreamWriter(w io.Writer, chunkEvents int) (*StreamWriter, error) {
	if chunkEvents < 1 {
		chunkEvents = DefaultChunkEvents
	}
	sw := &StreamWriter{w: bufio.NewWriter(w), chunkEvents: chunkEvents}
	sw.enc.w = &sw.chunk
	if _, err := sw.w.WriteString(magic); err != nil {
		return nil, err
	}
	if err := writeUvarint(sw.w, versionIndexed); err != nil {
		return nil, err
	}
	if err := writeUvarint(sw.w, uint64(chunkEvents)); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *StreamWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// Append encodes the event into the open chunk, flushing it when full.
func (sw *StreamWriter) Append(ev Event) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(errors.New("trace: Append after Close"))
	}
	if err := sw.enc.encode(ev); err != nil {
		return sw.fail(err)
	}
	sw.n++
	sw.stats.Events++
	if sw.n > sw.stats.PeakBufferedEvents {
		sw.stats.PeakBufferedEvents = sw.n
	}
	if sw.n >= sw.chunkEvents {
		return sw.flushChunk()
	}
	return nil
}

// AppendBatch encodes a batch of events in order, flushing chunks as
// they fill. It produces byte-for-byte the same stream as appending the
// events one at a time — the delta-encoder state runs continuously and
// chunk boundaries fall at the same event indexes — while hoisting the
// per-event error and lifecycle checks out of the loop. The chunk
// staging buffer is reused across chunks, so steady-state bulk encoding
// allocates nothing.
func (sw *StreamWriter) AppendBatch(evs []Event) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(errors.New("trace: Append after Close"))
	}
	for i := range evs {
		if err := sw.enc.encode(evs[i]); err != nil {
			return sw.fail(err)
		}
		sw.n++
		sw.stats.Events++
		if sw.n > sw.stats.PeakBufferedEvents {
			sw.stats.PeakBufferedEvents = sw.n
		}
		if sw.n >= sw.chunkEvents {
			if err := sw.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushChunk frames and writes the open chunk: event count, encoded
// byte length, the decoder handoff at the chunk's first event, then the
// payload. The handoff snapshot rolls forward to the encoder's current
// state for the next chunk.
func (sw *StreamWriter) flushChunk() error {
	if err := writeUvarint(sw.w, uint64(sw.n)); err != nil {
		return sw.fail(err)
	}
	if err := writeUvarint(sw.w, uint64(sw.chunk.Len())); err != nil {
		return sw.fail(err)
	}
	for kind := KindAlloc; kind <= KindAccess; kind++ {
		if err := writeUvarint(sw.w, sw.handoff[kind]); err != nil {
			return sw.fail(err)
		}
	}
	if _, err := sw.chunk.WriteTo(sw.w); err != nil {
		return sw.fail(err)
	}
	sw.chunk.Reset()
	sw.n = 0
	sw.handoff = sw.enc.prevAddr
	sw.stats.Chunks++
	return nil
}

// SetInstr records the run's total dynamic instruction count; it lands
// in the stream terminator, so call it before Close.
func (sw *StreamWriter) SetInstr(n uint64) { sw.instr = n }

// Close flushes the final partial chunk and writes the terminator.
// Close is idempotent; the first error wins.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return nil
	}
	sw.closed = true
	if sw.n > 0 {
		if err := sw.flushChunk(); err != nil {
			return err
		}
	}
	if err := writeUvarint(sw.w, 0); err != nil {
		return sw.fail(err)
	}
	if err := writeUvarint(sw.w, sw.instr); err != nil {
		return sw.fail(err)
	}
	if err := sw.w.Flush(); err != nil {
		return sw.fail(err)
	}
	return nil
}

// Stats reports what the writer has accepted and spilled so far.
func (sw *StreamWriter) Stats() RecorderStats { return sw.stats }

// --- Chunked / classic stream reader ----------------------------------

// StreamReader decodes a trace file incrementally, holding no event
// buffer at all. It accepts every container version: the classic
// version-1 file (header-counted) and the version-2/3 chunked streams.
type StreamReader struct {
	dec       eventDecoder
	version   uint64
	instr     uint64
	events    uint64 // events decoded so far
	remaining uint64 // events left in the current chunk (v2) or file (v1)
	declared  uint64 // v1 header event count
	chunkSize uint64 // v2 declared chunk size
	chunks    uint64
	done      bool
	err       error
	// src counts the bytes the buffered reader has pulled, which places
	// the decoder in the file; a v3 chunk's events must end exactly
	// chunkLen bytes after chunkStart.
	src        *countingReader
	chunkStart int64
	chunkLen   uint64
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// offset is the file position of the next byte the decoder consumes.
func (s *StreamReader) offset() int64 {
	return s.src.n - int64(s.dec.br.Buffered())
}

// NewStreamReader reads the container header and returns a Source over
// the file's events.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	src := &countingReader{r: r}
	br := bufio.NewReader(src)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic (not a PreFix trace file)")
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	s := &StreamReader{version: ver, src: src}
	s.dec.br = br
	switch ver {
	case version:
		if s.instr, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		if s.declared, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		s.remaining = s.declared
	case versionChunked, versionIndexed:
		if s.chunkSize, err = binary.ReadUvarint(br); err != nil {
			return nil, err
		}
		if s.chunkSize == 0 {
			return nil, errors.New("trace: chunked stream declares zero chunk size")
		}
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	return s, nil
}

func (s *StreamReader) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// Next implements Source.
func (s *StreamReader) Next() (Event, bool) {
	if s.done || s.err != nil {
		return Event{}, false
	}
	if s.remaining == 0 {
		if s.version == version {
			s.done = true
			return Event{}, false
		}
		// Chunked: the previous v3 chunk's events must have filled
		// exactly its declared byte length; then the next frame is a
		// chunk header or the terminator.
		if s.version == versionIndexed && s.chunks > 0 {
			if got := s.offset() - s.chunkStart; got != int64(s.chunkLen) {
				s.fail(fmt.Errorf("trace: chunk %d events fill %d bytes, frame declares %d",
					s.chunks-1, got, s.chunkLen))
				return Event{}, false
			}
		}
		n, err := binary.ReadUvarint(s.dec.br)
		if err != nil {
			s.fail(fmt.Errorf("trace: chunk %d header: %w", s.chunks, err))
			return Event{}, false
		}
		if n == 0 {
			instr, err := binary.ReadUvarint(s.dec.br)
			if err != nil {
				s.fail(fmt.Errorf("trace: stream terminator: %w", err))
				return Event{}, false
			}
			s.instr = instr
			s.done = true
			return Event{}, false
		}
		if n > s.chunkSize {
			s.fail(fmt.Errorf("trace: chunk %d claims %d events, above the declared chunk size %d",
				s.chunks, n, s.chunkSize))
			return Event{}, false
		}
		if s.version == versionIndexed {
			// Indexed frame: byte length and decoder handoff. The
			// serial decoder's state already runs continuously, so the
			// recorded handoff must match it exactly — a mismatch means
			// a corrupt file or a broken writer snapshot.
			byteLen, err := binary.ReadUvarint(s.dec.br)
			if err != nil {
				s.fail(fmt.Errorf("trace: chunk %d byte length: %w", s.chunks, err))
				return Event{}, false
			}
			if byteLen > n*maxEventEncodedBytes {
				s.fail(fmt.Errorf("trace: chunk %d claims %d bytes for %d events", s.chunks, byteLen, n))
				return Event{}, false
			}
			for kind := KindAlloc; kind <= KindAccess; kind++ {
				state, err := binary.ReadUvarint(s.dec.br)
				if err != nil {
					s.fail(fmt.Errorf("trace: chunk %d handoff: %w", s.chunks, err))
					return Event{}, false
				}
				if state != s.dec.prevAddr[kind] {
					s.fail(fmt.Errorf("trace: chunk %d handoff mismatch for kind %d: recorded %#x, decoder at %#x",
						s.chunks, kind, state, s.dec.prevAddr[kind]))
					return Event{}, false
				}
			}
			s.chunkStart, s.chunkLen = s.offset(), byteLen
		}
		s.chunks++
		s.remaining = n
	}
	ev, err := s.dec.decode(s.events)
	if err != nil {
		s.fail(err)
		return Event{}, false
	}
	s.events++
	s.remaining--
	return ev, true
}

// Err implements Source.
func (s *StreamReader) Err() error { return s.err }

// Instr implements Source. For version-1 files it is valid immediately;
// for chunked streams only after Next has returned false.
func (s *StreamReader) Instr() uint64 { return s.instr }

// Events returns the number of events decoded so far.
func (s *StreamReader) Events() uint64 { return s.events }

// Chunks returns the number of chunk frames consumed (zero for
// version-1 files).
func (s *StreamReader) Chunks() uint64 { return s.chunks }

// capHint returns a bounded capacity hint for materializing the stream:
// the declared event count where the header carries one, capped so a
// doctored header cannot drive a huge allocation (satellite of the
// untrusted-eventCount fix — real events grow the slice as they decode).
func (s *StreamReader) capHint() int {
	hint := s.declared
	if s.version != version {
		hint = s.chunkSize
	}
	if hint > maxPreallocEvents {
		hint = maxPreallocEvents
	}
	return int(hint)
}

var _ Source = (*StreamReader)(nil)

// --- Spill-to-disk recorder -------------------------------------------

// SpillRecorder is the bounded-memory trace recorder: the machine layer
// feeds it exactly like the in-memory Recorder, but events stream into a
// chunked trace file as chunks fill, so the run's peak trace-buffer
// memory is one chunk regardless of trace length.
//
// RecordBatch cannot return an error, so a write failure is latched:
// recording becomes a no-op and the error surfaces from Err and Close. Callers must Close the recorder (which writes the stream
// terminator) before reading the spill file back.
type SpillRecorder struct {
	sw    *StreamWriter
	instr uint64
}

// NewSpillRecorder starts a spilling recorder over w (typically the
// output trace file). chunkEvents bounds the in-memory buffer; values
// < 1 select DefaultChunkEvents.
func NewSpillRecorder(w io.Writer, chunkEvents int) (*SpillRecorder, error) {
	sw, err := NewStreamWriter(w, chunkEvents)
	if err != nil {
		return nil, err
	}
	return &SpillRecorder{sw: sw}, nil
}

// RecordBatch implements EventRecorder: the batch bulk-encodes through
// the stream writer, flushing chunks as they fill. A write error is
// latched (see SpillRecorder).
func (r *SpillRecorder) RecordBatch(evs []Event) {
	_ = r.sw.AppendBatch(evs)
}

// AddInstr implements EventRecorder.
func (r *SpillRecorder) AddInstr(n uint64) { r.instr += n }

// Err returns the first write error, if any.
func (r *SpillRecorder) Err() error { return r.sw.err }

// Close finalizes the spill stream (terminator + instruction count).
func (r *SpillRecorder) Close() error {
	r.sw.SetInstr(r.instr)
	return r.sw.Close()
}

// Stats reports events recorded, chunks spilled, and the peak number of
// buffered events.
func (r *SpillRecorder) Stats() RecorderStats { return r.sw.Stats() }

// --- Streaming analysis ------------------------------------------------

// AnalyzeSource reconstructs dynamic objects and the reference string
// from any event source in a single pass, without materializing the
// trace. Feeding the same events as Analyze produces an identical
// Analysis.
func AnalyzeSource(src Source) (*Analysis, error) {
	an := NewAnalyzer()
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		an.Feed(ev)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	an.AddInstr(src.Instr())
	return an.Finish(), nil
}

// writeUvarint writes one unsigned varint to w.
func writeUvarint(w *bufio.Writer, v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := w.Write(buf[:n])
	return err
}
