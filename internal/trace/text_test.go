package trace

import (
	"bytes"
	"testing"
)

func TestWriteText(t *testing.T) {
	tr := record()
	var buf bytes.Buffer
	r := NewTextRecorder(&buf)
	r.RecordBatch(tr.Events[:5]) // event indexes continue across batches
	r.RecordBatch(tr.Events[5:])
	r.AddInstr(tr.Instr)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	const want = `       0 alloc   site=1 stack=0xabc addr=0x1000 size=64
       1 access  addr=0x1000 size=8 read
       2 access  addr=0x1020 size=8 write
       3 alloc   site=1 stack=0xabc addr=0x2000 size=32
       4 alloc   site=2 stack=0xdef addr=0x3000 size=16
       5 access  addr=0x2000 size=8 read
       6 free    addr=0x1000
       7 alloc   site=2 stack=0xdef addr=0x1000 size=48
       8 access  addr=0x1000 size=8 read
       9 realloc old=0x3000 new=0x4000 size=128
      10 access  addr=0x4000 size=8 write
# trace: 11 events, 1234 instructions
`
	if got := buf.String(); got != want {
		t.Errorf("text dump:\n%s\nwant:\n%s", got, want)
	}
	if s := r.Stats(); s.Events != uint64(len(tr.Events)) {
		t.Errorf("Stats().Events = %d, want %d", s.Events, len(tr.Events))
	}
}
