package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead throws arbitrary bytes at the trace decoders: neither may
// panic, every rejection must name the trace layer, anything accepted
// must re-encode losslessly through the SpillRecorder, and the
// streaming reader must agree with the materializing Read on every
// input — same events in the same order, or an error on both sides.
func FuzzRead(f *testing.F) {
	valid := writeChunked(f, record(), 4)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PFXT"))
	f.Add(append([]byte(nil), valid[:len(valid)/2]...)) // truncated
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	f.Add(flipped)
	// A chunk over its declared size: the header declares 2 events per
	// chunk, the first frame claims 3.
	oversized := writeChunked(f, record(), 2)
	oversized[len(magic)+2] = 3
	f.Add(oversized)
	f.Add(v1File)
	f.Add(v3File)
	f.Add(writeChunked(f, record(), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))

		// The streaming reader must agree with Read byte for byte: the
		// same events in the same order, or an error on both paths.
		sr, srErr := NewStreamReader(bytes.NewReader(data))
		var streamed []Event
		var instr uint64
		if srErr == nil {
			for {
				ev, ok := sr.Next()
				if !ok {
					break
				}
				streamed = append(streamed, ev)
			}
			srErr = sr.Err()
			instr = sr.Instr()
		}
		if (err == nil) != (srErr == nil) {
			t.Fatalf("decoder disagreement: Read err=%v, stream err=%v", err, srErr)
		}
		if err != nil {
			// Rejecting garbage is fine, as long as both reject and
			// say where the error comes from.
			for _, e := range []error{err, srErr} {
				if !strings.HasPrefix(e.Error(), "trace: ") {
					t.Fatalf("rejection %q does not start with \"trace: \"", e)
				}
			}
			return
		}
		if len(streamed) != len(tr.Events) || instr != tr.Instr {
			t.Fatalf("stream decoded %d events (instr %d), Read %d (instr %d)",
				len(streamed), instr, len(tr.Events), tr.Instr)
		}
		for i := range streamed {
			if streamed[i] != tr.Events[i] {
				t.Fatalf("event %d: stream %+v, Read %+v", i, streamed[i], tr.Events[i])
			}
		}

		// Anything accepted must survive a re-encode roundtrip.
		tr2, err := Read(bytes.NewReader(writeChunked(t, tr, 3)))
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if tr2.Instr != tr.Instr || len(tr2.Events) != len(tr.Events) {
			t.Fatal("re-encode roundtrip lost events")
		}
		for i := range tr.Events {
			if tr2.Events[i] != tr.Events[i] {
				t.Fatalf("event %d: re-encoded %+v, accepted %+v", i, tr2.Events[i], tr.Events[i])
			}
		}
	})
}
