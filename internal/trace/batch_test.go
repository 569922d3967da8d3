package trace

import (
	"bytes"
	"reflect"
	"testing"
)

// TestRecorderRecordBatch: the in-memory recorder's bulk path must be
// indistinguishable from the per-event methods.
func TestRecorderRecordBatch(t *testing.T) {
	tr := record()
	r := NewRecorder()
	r.RecordBatch(tr.Events[:4])
	r.RecordBatch(tr.Events[4:])
	r.AddInstr(tr.Instr)
	got := r.Trace()
	if !reflect.DeepEqual(got.Events, tr.Events) || got.Instr != tr.Instr {
		t.Errorf("RecordBatch trace differs: %d events instr %d", len(got.Events), got.Instr)
	}
}

// TestSpillRecorderRecordBatchParity: the spill recorder's bytes must
// not depend on how the events are split into batches.
func TestSpillRecorderRecordBatchParity(t *testing.T) {
	tr := record()

	var single bytes.Buffer
	sp1, err := NewSpillRecorder(&single, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		sp1.RecordBatch(tr.Events[i : i+1])
	}
	sp1.AddInstr(tr.Instr)
	if err := sp1.Close(); err != nil {
		t.Fatal(err)
	}

	var bulk bytes.Buffer
	sp2, err := NewSpillRecorder(&bulk, 4)
	if err != nil {
		t.Fatal(err)
	}
	sp2.RecordBatch(tr.Events)
	sp2.AddInstr(tr.Instr)
	if err := sp2.Close(); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(single.Bytes(), bulk.Bytes()) {
		t.Fatal("one-batch spill bytes differ from one-event-per-batch spill bytes")
	}
	got, err := Read(&bulk)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events, tr.Events) || got.Instr != tr.Instr {
		t.Error("bulk spill does not round-trip the trace")
	}
}
