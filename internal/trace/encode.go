package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"prefix/internal/mem"
)

// Binary trace file format (all integers unsigned varints): a chunked
// stream, so a file is produced and consumed incrementally and both ends
// hold one chunk at most.
//
//	magic "PFXT" | version=2 | chunkSize |
//	  chunk*: eventCount (1..chunkSize) | events... |
//	  terminator: 0 | instr
//
// Each event starts with a tag byte (Kind, with the high bit carrying the
// Write flag for accesses) followed by kind-specific fields. Addresses are
// delta-encoded against the previous address of the same kind to keep files
// compact — profiling traces reach tens of millions of events. The delta
// state runs continuously across chunk boundaries. The instruction count
// sits in the terminator because a recorder only learns it when the run
// finishes.
//
// SpillRecorder is the only writer. Versions 1 (a header-counted file)
// and 3 (version 2 with indexed chunk frames for a parallel decoder) are
// no longer read: traces are deterministic in their benchmark, scale and
// seed, so an old file is rejected with a request to re-record it.
const (
	magic   = "PFXT"
	version = 2
)

// maxPreallocEvents caps how many Events Read preallocates from the
// untrusted declared chunk size: a corrupt or hostile file can claim
// 2⁶⁴ events per chunk, so the initial allocation is bounded and the
// slice grows only as real events actually decode.
const maxPreallocEvents = 1 << 16

// eventEncoder appends events to buf with per-kind address delta
// compression. Its state must run continuously over the whole stream
// (chunk framing does not reset it).
type eventEncoder struct {
	buf      []byte
	prevAddr [5]uint64 // previous address per kind, for delta encoding
}

// encode appends one event.
func (e *eventEncoder) encode(ev Event) error {
	if ev.Kind < KindAlloc || ev.Kind > KindAccess {
		return fmt.Errorf("trace: cannot encode event of kind %d", ev.Kind)
	}
	tag := byte(ev.Kind)
	if ev.Kind == KindAccess && ev.Write {
		tag |= 0x80
	}
	delta := uint64(ev.Addr) - e.prevAddr[ev.Kind]
	e.prevAddr[ev.Kind] = uint64(ev.Addr)
	b := binary.AppendUvarint(append(e.buf, tag), zigzag(delta))
	switch ev.Kind {
	case KindAlloc:
		b = binary.AppendUvarint(b, uint64(ev.Site))
		b = binary.AppendUvarint(b, uint64(ev.Stack))
		b = binary.AppendUvarint(b, ev.Size)
	case KindRealloc:
		b = binary.AppendUvarint(b, uint64(ev.Addr2))
		b = binary.AppendUvarint(b, ev.Size)
	case KindAccess:
		b = binary.AppendUvarint(b, ev.Size)
	}
	// KindFree: address only.
	e.buf = b
	return nil
}

// eventDecoder mirrors eventEncoder. err latches the first failed field
// read, so decode checks once per event.
type eventDecoder struct {
	br       *bufio.Reader
	prevAddr [5]uint64
	err      error
}

func (d *eventDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(d.br)
	d.err = err
	return v
}

// decode reads one event; i is the running event index, used only for
// error messages. Every event sits inside a chunk that declared it, so
// running out of bytes is truncation (io.ErrUnexpectedEOF), never a
// clean end.
func (d *eventDecoder) decode(i uint64) (Event, error) {
	tag, err := d.br.ReadByte()
	if err != nil {
		return Event{}, fmt.Errorf("trace: event %d: %w", i, truncated(err))
	}
	var ev Event
	ev.Kind = Kind(tag & 0x7f)
	if ev.Kind < KindAlloc || ev.Kind > KindAccess {
		return Event{}, fmt.Errorf("trace: event %d: bad kind %d", i, ev.Kind)
	}
	ev.Write = tag&0x80 != 0
	if ev.Write && ev.Kind != KindAccess {
		// The encoder sets the flag on accesses only.
		return Event{}, fmt.Errorf("trace: event %d: write flag on kind %d", i, ev.Kind)
	}
	d.prevAddr[ev.Kind] += unzigzag(d.uvarint())
	ev.Addr = mem.Addr(d.prevAddr[ev.Kind])
	switch ev.Kind {
	case KindAlloc:
		ev.Site = mem.SiteID(d.uvarint())
		ev.Stack = mem.StackSig(d.uvarint())
		ev.Size = d.uvarint()
	case KindRealloc:
		ev.Addr2 = mem.Addr(d.uvarint())
		ev.Size = d.uvarint()
	case KindAccess:
		ev.Size = d.uvarint()
	}
	if d.err != nil {
		return Event{}, fmt.Errorf("trace: event %d: %w", i, truncated(d.err))
	}
	return ev, nil
}

// truncated maps a clean io.EOF inside a header, frame or event to
// io.ErrUnexpectedEOF: a trace ends only at its terminator, so a decode
// error must never read as end-of-stream.
func truncated(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Read materializes a trace file written by a SpillRecorder. It is the
// in-memory convenience over NewStreamReader; use the stream reader
// directly to stay within a bounded event buffer.
func Read(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := &Trace{}
	t.Events = make([]Event, 0, sr.capHint())
	for {
		ev, ok := sr.Next()
		if !ok {
			break
		}
		t.Events = append(t.Events, ev)
	}
	if err := sr.Err(); err != nil {
		return nil, err
	}
	t.Instr = sr.Instr()
	return t, nil
}

// zigzag maps a two's-complement delta to an unsigned value with small
// magnitudes near zero, so varints stay short for both directions.
func zigzag(d uint64) uint64 {
	s := int64(d)
	return uint64(s<<1) ^ uint64(s>>63)
}

func unzigzag(z uint64) uint64 {
	return uint64(int64(z>>1) ^ -int64(z&1))
}
