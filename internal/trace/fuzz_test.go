package trace

import (
	"bytes"
	"testing"
)

// Malformed version-3 seeds of FuzzRead, also asserted rejected by
// TestMalformedFrameSeedsRejected.
var (
	badHandoffFrame = []byte("PFXT\x030\x01\x030000\x02\x800\x000")
	shortChunkFrame = []byte("PFXT\x030\x030\x00\x00\x00\x00\x04\x8000\x010\xc000\x880\x02\x800\x000")
)

// FuzzRead throws arbitrary bytes at the trace decoders: neither may
// panic, anything accepted must re-encode losslessly, and the streaming
// reader must agree with the materializing Read on every input — same
// events in the same order, or an error on both sides.
func FuzzRead(f *testing.F) {
	// Seed with valid traces in both container versions and a few
	// corruptions of them.
	var buf bytes.Buffer
	if err := record().Write(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("PFXT"))
	if len(valid) > 8 {
		truncated := append([]byte(nil), valid[:len(valid)/2]...)
		f.Add(truncated)
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)/2] ^= 0xff
		f.Add(flipped)
	}
	// Chunked-container seeds: a valid stream and a truncated chunk.
	var chunked bytes.Buffer
	sw, err := NewStreamWriter(&chunked, 4)
	if err != nil {
		f.Fatal(err)
	}
	for _, ev := range record().Events {
		if err := sw.Append(ev); err != nil {
			f.Fatal(err)
		}
	}
	sw.SetInstr(record().Instr)
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(chunked.Bytes())
	f.Add(append([]byte(nil), chunked.Bytes()[:chunked.Len()-6]...))
	// Malformed version-3 frames: the first carries a handoff that does
	// not match the decoder state (rejected); the second declares a
	// chunk byte length its events do not fill (rejected).
	f.Add(badHandoffFrame)
	f.Add(shortChunkFrame)

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
			return // rejecting garbage is fine, as long as both reject
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
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		tr2, err := Read(&out)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		if len(tr2.Events) != len(tr.Events) || tr2.Instr != tr.Instr {
			t.Fatal("re-encode roundtrip lost events")
		}
	})
}
