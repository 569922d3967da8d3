package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"prefix/internal/obs"
)

// This file is the streaming half of the trace layer. The in-memory
// *Trace stays the reference implementation; a trace file is written
// incrementally by the SpillRecorder and read back through the Source
// pull iterator, so traces with tens of millions of events never
// materialize the whole stream. The container format is documented in
// encode.go.

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
// over in one call. *Recorder (in-memory), *SpillRecorder (the trace
// file, bounded memory), *TextRecorder (a text dump) and *Analyzer
// (analysis as the run goes, no trace kept) implement it.
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
// the text recorder and the analyzer.
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

var (
	_ EventRecorder = (*Recorder)(nil)
	_ EventRecorder = (*SpillRecorder)(nil)
	_ EventRecorder = (*TextRecorder)(nil)
	_ EventRecorder = (*Analyzer)(nil)
)

// DefaultChunkEvents is the default chunk size of the spill recorder:
// the maximum number of events buffered in memory before a chunk is
// flushed to the backing writer.
const DefaultChunkEvents = 1 << 16

// --- Stream reader -----------------------------------------------------

// StreamReader decodes a trace file incrementally, holding no event
// buffer at all.
type StreamReader struct {
	dec       eventDecoder
	instr     uint64
	events    uint64 // events decoded so far
	remaining uint64 // events left in the current chunk
	chunkSize uint64 // declared chunk size
	chunks    uint64
	done      bool
	err       error
}

// NewStreamReader reads the container header and returns a Source over
// the file's events.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", truncated(err))
	}
	if string(head) != magic {
		return nil, errors.New("trace: bad magic (not a PreFix trace file)")
	}
	ver, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading version: %w", truncated(err))
	}
	switch ver {
	case version:
	case 1, 3: // the header-counted file and the indexed chunk frame
		return nil, fmt.Errorf("trace: container version %d is no longer supported; re-record with prefix-trace", ver)
	default:
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	s := &StreamReader{}
	s.dec.br = br
	if s.chunkSize, err = binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("trace: reading chunk size: %w", truncated(err))
	}
	if s.chunkSize == 0 {
		return nil, errors.New("trace: chunked stream declares zero chunk size")
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
		// The next frame is a chunk header or the terminator.
		n, err := binary.ReadUvarint(s.dec.br)
		if err != nil {
			s.fail(fmt.Errorf("trace: chunk %d header: %w", s.chunks, truncated(err)))
			return Event{}, false
		}
		if n == 0 {
			instr, err := binary.ReadUvarint(s.dec.br)
			if err != nil {
				s.fail(fmt.Errorf("trace: stream terminator: %w", truncated(err)))
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

// Instr implements Source. It is valid only after Next has returned
// false: the count sits in the stream terminator.
func (s *StreamReader) Instr() uint64 { return s.instr }

// Events returns the number of events decoded so far.
func (s *StreamReader) Events() uint64 { return s.events }

// Chunks returns the number of chunk frames consumed.
func (s *StreamReader) Chunks() uint64 { return s.chunks }

// capHint returns a bounded capacity hint for materializing the stream:
// the declared chunk size, capped so a doctored header cannot drive a
// huge allocation (real events grow the slice as they decode).
func (s *StreamReader) capHint() int {
	return int(min(s.chunkSize, maxPreallocEvents))
}

var _ Source = (*StreamReader)(nil)

// --- Spill-to-disk recorder -------------------------------------------

// SpillRecorder is the bounded-memory trace recorder and the only trace
// file writer: the machine layer feeds it exactly like the in-memory
// Recorder, but events are encoded into an in-memory chunk as they
// arrive, and each chunk is framed and flushed to the backing writer
// when it holds chunkEvents events. The run's peak trace-buffer memory
// is one chunk regardless of trace length.
//
// RecordBatch cannot return an error, so a write failure is latched:
// recording becomes a no-op and the error surfaces from Err and Close.
// Callers must Close the recorder (which writes the stream terminator)
// before reading the spill file back.
type SpillRecorder struct {
	w           *bufio.Writer
	enc         eventEncoder // enc.buf holds the open chunk's events
	varint      []byte       // scratch for frame varints
	chunkEvents int
	n           int // events in the open chunk
	instr       uint64
	stats       RecorderStats
	closed      bool
	err         error
}

// NewSpillRecorder starts a spilling recorder over w (typically the
// output trace file). chunkEvents bounds the in-memory buffer; values
// < 1 select DefaultChunkEvents.
func NewSpillRecorder(w io.Writer, chunkEvents int) (*SpillRecorder, error) {
	if chunkEvents < 1 {
		chunkEvents = DefaultChunkEvents
	}
	r := &SpillRecorder{w: bufio.NewWriter(w), chunkEvents: chunkEvents}
	if _, err := r.w.WriteString(magic); err != nil {
		return nil, err
	}
	r.putUvarint(version)
	r.putUvarint(uint64(chunkEvents))
	if r.err != nil {
		return nil, r.err
	}
	return r, nil
}

// putUvarint writes one unsigned varint to the backing writer, latching
// the first error.
func (r *SpillRecorder) putUvarint(v uint64) {
	if r.err == nil {
		r.varint = binary.AppendUvarint(r.varint[:0], v)
		_, r.err = r.w.Write(r.varint)
	}
}

// RecordBatch implements EventRecorder: the batch is encoded in order,
// flushing chunks as they fill. The bytes do not depend on how events
// are split into batches — the delta-encoder state runs continuously
// and chunk boundaries fall at the same event indexes. A write error is
// latched (see SpillRecorder).
func (r *SpillRecorder) RecordBatch(evs []Event) {
	if r.err != nil {
		return
	}
	if r.closed {
		r.err = errors.New("trace: RecordBatch after Close")
		return
	}
	for i := range evs {
		if r.err = r.enc.encode(evs[i]); r.err != nil {
			return
		}
		r.n++
		r.stats.Events++
		if r.n >= r.chunkEvents && r.flushChunk() != nil {
			return
		}
	}
}

// flushChunk frames and writes the open chunk: event count, then the
// encoded events. The staging buffer is reused, so steady-state
// recording allocates nothing. It returns the latched error.
func (r *SpillRecorder) flushChunk() error {
	r.putUvarint(uint64(r.n))
	if r.err == nil {
		_, r.err = r.w.Write(r.enc.buf)
	}
	if r.err != nil {
		return r.err
	}
	r.enc.buf = r.enc.buf[:0]
	r.stats.PeakBufferedEvents = max(r.stats.PeakBufferedEvents, r.n)
	r.n = 0
	r.stats.Chunks++
	return nil
}

// AddInstr implements EventRecorder; the total lands in the stream
// terminator.
func (r *SpillRecorder) AddInstr(n uint64) { r.instr += n }

// Err returns the first write error, if any.
func (r *SpillRecorder) Err() error { return r.err }

// Close flushes the final partial chunk and writes the terminator
// (end marker + instruction count). Close is idempotent; the first
// error wins.
func (r *SpillRecorder) Close() error {
	if r.err != nil || r.closed {
		return r.err
	}
	r.closed = true
	if r.n > 0 {
		r.flushChunk()
	}
	r.putUvarint(0)
	r.putUvarint(r.instr)
	if r.err == nil {
		r.err = r.w.Flush()
	}
	return r.err
}

// Stats reports events recorded, chunks spilled, and the peak number of
// buffered events (the open chunk included).
func (r *SpillRecorder) Stats() RecorderStats {
	s := r.stats
	s.PeakBufferedEvents = max(s.PeakBufferedEvents, r.n)
	return s
}

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
