package probe

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzReadTrace feeds arbitrary bytes to ReadTrace and to Replay through
// the five built-in collectors: neither may panic. When ReadTrace accepts
// the input, writing its events again with NewWriter and reading them back
// must give the same events, and writing those gives the same bytes.
//
//	go test -run xxx -fuzz FuzzReadTrace -fuzztime 10s -fuzzminimizetime 1s ./internal/probe
func FuzzReadTrace(f *testing.F) {
	// Seeds: testdata/fuzz/FuzzReadTrace, a four-type trace the writer
	// made and one line of int32 and float64 extremes.
	f.Fuzz(func(t *testing.T, data []byte) {
		collectors := []Collector{NewSkewStats(), NewSpreadStats(), NewMsgStats(), NewReintegrationWindows(), NewSeries()}
		probes := make([]Probe, len(collectors))
		for i, c := range collectors {
			probes[i] = c
		}
		Replay(bytes.NewReader(data), probes...)
		for _, c := range collectors {
			c.Aggregate()
		}

		read := func(data []byte) ([]Event, error) {
			var evs []Event
			err := ReadTrace(bytes.NewReader(data), func(ev Event) error {
				evs = append(evs, ev)
				return nil
			})
			return evs, err
		}
		write := func(evs []Event) []byte {
			var buf bytes.Buffer
			w := NewWriter(&buf)
			for _, ev := range evs {
				w.OnEvent(ev)
			}
			if err := w.Flush(); err != nil {
				t.Fatalf("writing %d read events: %v", len(evs), err)
			}
			return buf.Bytes()
		}
		evs, err := read(data)
		if err != nil {
			return
		}
		enc := write(evs)
		again, err := read(enc)
		if err != nil {
			t.Fatalf("reading the events written again: %v\n%s", err, enc)
		}
		if !slices.Equal(evs, again) {
			t.Fatalf("events changed through the writer:\n read  %+v\n again %+v", evs, again)
		}
		if enc2 := write(again); !bytes.Equal(enc, enc2) {
			t.Fatalf("writing the same events twice differs:\n%s\n%s", enc, enc2)
		}
	})
}
