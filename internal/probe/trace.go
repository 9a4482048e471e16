package probe

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// removedBinaryMagic opened the 40-byte binary row format that PR 22
// removed. ReadTrace still recognizes it, so an old file is refused by
// name instead of being misparsed as JSONL.
var removedBinaryMagic = [8]byte{'O', 'S', 'T', 'R', 'A', 'C', 'E', '1'}

// ErrBinaryRemoved is the one error for the binary row format: ReadTrace
// returns it for the magic above, the CLI for the format's extensions.
var ErrBinaryRemoved = errors.New("probe: the binary row trace format was removed in PR 22; " +
	"record a .lake (columnar, indexed) or JSONL trace instead")

// LakeMagic identifies a columnar lake container (internal/tracelake).
// The row reader here cannot stream one — a lake needs random access to
// its footer index — so ReadTrace recognizes the magic and fails with a
// pointer to the lake API instead of misparsing the bytes as JSONL.
// Defined here, beside the other stream magic, so format sniffing has one
// home; tracelake asserts it matches its own header.
var LakeMagic = [8]byte{'O', 'S', 'L', 'A', 'K', 'E', '1', '\n'}

// traceRecord is the JSONL projection of an Event. Every field is always
// present so replay never guesses at defaults.
type traceRecord struct {
	Type  string  `json:"type"`
	T     float64 `json:"t"`
	From  int32   `json:"from"`
	To    int32   `json:"to"`
	Kind  uint16  `json:"kind"`
	Round int32   `json:"round"`
	Value float64 `json:"value"`
	Aux   float64 `json:"aux"`
}

var typeByName = func() map[string]Type {
	m := make(map[string]Type, numTypes)
	for t := typeInvalid + 1; t < numTypes; t++ {
		m[t.String()] = t
	}
	return m
}()

// Writer records the event stream it observes as JSON Lines: one
// self-describing object per event — greppable, diffable, toolable — with
// Go's shortest-round-trip float encoding keeping replay exact. It
// implements Probe, so installing a trace is just attaching it to the bus
// (WithTrace does). Writes are buffered; call Flush when the run is over.
// I/O errors are sticky: the first one stops further writes and is
// reported by Flush and Err.
type Writer struct {
	bw     *bufio.Writer
	enc    *json.Encoder
	err    error
	events uint64
}

// NewWriter returns a JSONL trace writer on w.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	return &Writer{bw: bw, enc: json.NewEncoder(bw)}
}

// Events returns the number of events recorded so far.
func (w *Writer) Events() uint64 { return w.events }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// OnEvent implements Probe.
func (w *Writer) OnEvent(ev Event) {
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(traceRecord{
		Type: ev.Type.String(), T: ev.T,
		From: ev.From, To: ev.To,
		Kind: ev.Kind, Round: ev.Round,
		Value: ev.Value, Aux: ev.Aux,
	})
	if w.err == nil {
		w.events++
	}
}

// Flush drains the buffer and returns the first error seen by any write
// or the flush itself. A trace is complete only after a nil Flush.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// ReadTrace decodes a JSONL trace stream and invokes fn for every event
// in order. A non-nil error from fn aborts the read and is returned. The
// leading bytes are sniffed first: a lake container and the removed
// binary row format are errors that name what to use instead.
func ReadTrace(r io.Reader, fn func(Event) error) error {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(LakeMagic))
	if err == io.EOF && len(head) == 0 {
		return nil // empty trace: a run nobody observed
	}
	if err == nil && [8]byte(head) == removedBinaryMagic {
		return ErrBinaryRemoved
	}
	if err == nil && [8]byte(head) == LakeMagic {
		return errors.New("probe: stream is a columnar trace lake, not a row trace; " +
			"open it with optsync.OpenLake (or tracelake.Open) instead of ReplayTrace")
	}
	return readJSONL(br, fn)
}

func readJSONL(br *bufio.Reader, fn func(Event) error) error {
	dec := json.NewDecoder(br)
	for n := uint64(0); ; n++ {
		var rec traceRecord
		off := dec.InputOffset()
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("probe: jsonl trace event %d (byte offset %d): %w", n, off, err)
		}
		t, ok := typeByName[rec.Type]
		if !ok {
			return fmt.Errorf("probe: jsonl trace event %d (byte offset %d) has unknown type %q", n, off, rec.Type)
		}
		ev := Event{
			Type: t, T: rec.T,
			From: rec.From, To: rec.To,
			Kind: rec.Kind, Round: rec.Round,
			Value: rec.Value, Aux: rec.Aux,
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// Replay feeds a recorded trace back through probes, in recorded order,
// and returns the number of events replayed. Collectors fed a replayed
// trace reproduce the aggregates of the original run exactly: JSONL
// round-trips float64 values bit-for-bit.
func Replay(r io.Reader, probes ...Probe) (int, error) {
	var bus Bus
	bus.AttachAll(probes...)
	n := 0
	err := ReadTrace(r, func(ev Event) error {
		n++
		//syncsim:allowlist probeguard replay emits every recorded event to explicitly attached probes; there is no unobserved fast path to protect
		bus.Emit(ev)
		return nil
	})
	return n, err
}
