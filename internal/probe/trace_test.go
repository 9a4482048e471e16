package probe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// traceTestEvents builds a representative stream: every type, awkward
// floats (shortest-round-trip stress), negative ids.
func traceTestEvents() []Event {
	rng := rand.New(rand.NewSource(3))
	evs := []Event{
		{Type: TypeMessageSent, Kind: 7, From: 0, To: 3, Round: 2, T: 0.1, Value: 0.1071234567890123},
		{Type: TypeMessageDelivered, Kind: 7, From: 0, To: 3, Round: 2, T: 0.1071234567890123},
		{Type: TypeMessageDropPolicy, Kind: 7, From: 5, To: 6, Round: 2, T: 0.2, Value: -1},
		{Type: TypeMessageDropOffline, Kind: 7, From: 1, To: 4, Round: 3, T: 0.3},
		{Type: TypeMessageDropLink, Kind: 7, From: 2, To: 0, Round: 3, T: 0.4, Value: -1},
		{Type: TypePulse, From: 1, Round: 4, T: 4.000000000000001, Value: 4.25},
		{Type: TypeResync, From: 1, T: 4.01, Value: 4.25, Aux: 4.249998},
		{Type: TypeNodeBoot, From: 6, T: 7.25},
		{Type: TypePartitionCut, From: -1, To: 3, T: 10},
		{Type: TypePartitionHeal, From: -1, To: 3, T: 20},
		{Type: TypeSkewSample, From: -1, To: -1, Round: 7, T: 1.05, Value: 1.0 / 3.0},
	}
	for i := 0; i < 200; i++ {
		evs = append(evs, Event{
			Type: TypeSkewSample, From: -1, To: -1, Round: 7,
			T: rng.Float64() * 30, Value: rng.Float64() * 0.01,
		})
	}
	return evs
}

func TestTraceRoundTripJSONL(t *testing.T) {
	events := traceTestEvents()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range events {
		w.OnEvent(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Events() != uint64(len(events)) {
		t.Fatalf("Events = %d, want %d", w.Events(), len(events))
	}

	var got []Event
	if err := ReadTrace(bytes.NewReader(buf.Bytes()), func(ev Event) error {
		got = append(got, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("read %d events, wrote %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d drifted:\n got  %+v\n want %+v", i, got[i], events[i])
		}
	}
}

// TestReplayReproducesAggregates is the replay contract in miniature: a
// recorded stream fed through fresh collectors yields bit-identical
// aggregates.
func TestReplayReproducesAggregates(t *testing.T) {
	events := traceTestEvents()
	live := []Collector{NewSkewStats(), NewSpreadStats(), NewMsgStats(), NewReintegrationWindows(), NewSeries()}
	var liveBus Bus
	for _, c := range live {
		liveBus.AttachCollector(c)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range events {
		w.OnEvent(ev)
		liveBus.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	replayed := []Collector{NewSkewStats(), NewSpreadStats(), NewMsgStats(), NewReintegrationWindows(), NewSeries()}
	probes := make([]Probe, len(replayed))
	for i, c := range replayed {
		probes[i] = c
	}
	n, err := Replay(bytes.NewReader(buf.Bytes()), probes...)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("replayed %d events, want %d", n, len(events))
	}
	for i := range live {
		a, b := live[i].Aggregate(), replayed[i].Aggregate()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("collector %s: live %+v != replay %+v", live[i].Name(), a, b)
		}
	}
}

func TestReadTraceEmpty(t *testing.T) {
	if err := ReadTrace(strings.NewReader(""), func(Event) error {
		t.Fatal("callback on empty trace")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadTraceBadJSONLType(t *testing.T) {
	err := ReadTrace(strings.NewReader(`{"type":"no_such_event","t":1}`+"\n"),
		func(Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "unknown type") {
		t.Fatalf("err = %v", err)
	}
}

func TestReadTraceCallbackError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.OnEvent(Event{Type: TypePulse, T: 1})
	w.OnEvent(Event{Type: TypePulse, T: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	n := 0
	err := ReadTrace(bytes.NewReader(buf.Bytes()), func(Event) error {
		n++
		return boom
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("err = %v after %d events", err, n)
	}
}

// failWriter fails after k bytes.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.left {
		n := f.left
		f.left = 0
		return n, errors.New("disk full")
	}
	f.left -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&failWriter{left: 16})
	for i := 0; i < 2000; i++ { // overflow the bufio buffer to force the write through
		w.OnEvent(Event{Type: TypeSkewSample, T: float64(i), Value: 0.001})
	}
	if err := w.Flush(); err == nil {
		t.Fatal("Flush hid the write error")
	}
	if w.Err() == nil {
		t.Fatal("Err lost the write error")
	}
	before := w.Events()
	w.OnEvent(Event{Type: TypeSkewSample}) // must be a no-op now
	if w.Events() != before {
		t.Fatal("writer kept counting after error")
	}
}

// TestReadTraceRejectsLake pins the format-sniffing contract: a lake
// container handed to the row readers fails fast with a pointer to the
// lake API, instead of being misparsed as JSONL.
func TestReadTraceRejectsLake(t *testing.T) {
	data := append(LakeMagic[:], []byte("rest of a columnar container")...)
	err := ReadTrace(bytes.NewReader(data), func(Event) error {
		t.Fatal("callback invoked on a lake stream")
		return nil
	})
	if err == nil {
		t.Fatal("ReadTrace accepted a lake container")
	}
	for _, want := range []string{"columnar trace lake", "optsync.OpenLake"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want mention of %q", err, want)
		}
	}
}

// rejectsRemovedBinary feeds ReadTrace a stream that opens with the magic
// of the binary row format PR 22 removed and requires the error that
// names the format and the two that replace it — never a misparse as
// JSONL, never a callback.
func rejectsRemovedBinary(t *testing.T, body []byte) {
	t.Helper()
	data := append([]byte("OSTRACE1"), body...)
	err := ReadTrace(bytes.NewReader(data), func(Event) error {
		t.Fatal("callback invoked on a binary row trace")
		return nil
	})
	if !errors.Is(err, ErrBinaryRemoved) {
		t.Fatalf("err = %v, want ErrBinaryRemoved", err)
	}
	for _, want := range []string{"removed in PR 22", ".lake", "JSONL"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want mention of %q", err, want)
		}
	}
}

func TestReadTraceRejectsRemovedBinary(t *testing.T) {
	rejectsRemovedBinary(t, make([]byte, 2*40)) // two 40-byte frames
	rejectsRemovedBinary(t, nil)                // nothing but the magic
}

// TestReadTraceTruncatedBinary: a binary file cut mid-frame used to be a
// truncation error; with the frame reader gone it is refused like any
// other, before a byte of it is parsed.
func TestReadTraceTruncatedBinary(t *testing.T) {
	rejectsRemovedBinary(t, make([]byte, 35))
}

// Corrupt-input contract: decode errors name the byte offset of the
// damage, so a mangled multi-gigabyte trace is debuggable with dd.

func TestReadTraceMalformedJSONLNamesOffset(t *testing.T) {
	line := `{"type":"pulse","t":1,"from":0,"to":0,"kind":0,"round":1,"value":0,"aux":0}` + "\n"
	data := line + line + `{"type":"pulse","t":` // cut mid-object
	n := 0
	err := ReadTrace(strings.NewReader(data), func(Event) error {
		n++
		return nil
	})
	if n != 2 {
		t.Fatalf("decoded %d events before the damage, want 2", n)
	}
	// The decoder's offset sits at the closing brace of the last good
	// object — one byte shy of its newline.
	wantOff := fmt.Sprintf("byte offset %d", 2*len(line)-1)
	if err == nil || !strings.Contains(err.Error(), "event 2") || !strings.Contains(err.Error(), wantOff) {
		t.Fatalf("err = %v, want malformed-json error at event 2, %s", err, wantOff)
	}
}
