package trace

import (
	"bufio"
	"fmt"
	"io"
)

// TextRecorder is an EventRecorder that writes each event as one line of
// text as it is recorded, the equivalent of DrCacheSim's text view.
// Intended for debugging and small traces; the binary format is the
// interchange format. The event and instruction totals are only known
// when the run ends, so they close the dump:
//
//	       0 alloc   site=3 stack=0x1f addr=0x12340 size=64
//	       1 access  addr=0x12340 size=8 read
//	       2 realloc old=0x12340 new=0x99000 size=128
//	       3 free    addr=0x99000
//	# trace: 4 events, 9 instructions
//
// A write error is latched by the buffered writer and returned by Close.
type TextRecorder struct {
	w     *bufio.Writer
	n     uint64
	instr uint64
}

// NewTextRecorder starts a text dump on w.
func NewTextRecorder(w io.Writer) *TextRecorder {
	return &TextRecorder{w: bufio.NewWriter(w)}
}

// RecordBatch implements EventRecorder.
func (r *TextRecorder) RecordBatch(evs []Event) {
	for _, ev := range evs {
		switch ev.Kind {
		case KindAlloc:
			fmt.Fprintf(r.w, "%8d alloc   site=%d stack=%#x addr=%#x size=%d\n",
				r.n, ev.Site, uint64(ev.Stack), uint64(ev.Addr), ev.Size)
		case KindFree:
			fmt.Fprintf(r.w, "%8d free    addr=%#x\n", r.n, uint64(ev.Addr))
		case KindRealloc:
			fmt.Fprintf(r.w, "%8d realloc old=%#x new=%#x size=%d\n",
				r.n, uint64(ev.Addr), uint64(ev.Addr2), ev.Size)
		case KindAccess:
			rw := "read"
			if ev.Write {
				rw = "write"
			}
			fmt.Fprintf(r.w, "%8d access  addr=%#x size=%d %s\n",
				r.n, uint64(ev.Addr), ev.Size, rw)
		default:
			fmt.Fprintf(r.w, "%8d ?kind=%d\n", r.n, ev.Kind)
		}
		r.n++
	}
}

// AddInstr implements EventRecorder.
func (r *TextRecorder) AddInstr(n uint64) { r.instr += n }

// Close writes the totals line and flushes the dump.
func (r *TextRecorder) Close() error {
	fmt.Fprintf(r.w, "# trace: %d events, %d instructions\n", r.n, r.instr)
	return r.w.Flush()
}

// Stats reports the events written. Lines go straight to the buffered
// writer, so no event is ever held.
func (r *TextRecorder) Stats() RecorderStats { return RecorderStats{Events: r.n} }
