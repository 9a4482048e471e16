package probe

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
)

// Format selects a trace encoding.
type Format uint8

const (
	// FormatJSONL encodes one self-describing JSON object per line —
	// greppable, diffable, toolable. Go's shortest-round-trip float
	// encoding keeps replay exact.
	FormatJSONL Format = iota
	// FormatBinary encodes fixed-width 40-byte little-endian frames after
	// an 8-byte magic header — about 4x denser than JSONL and bit-exact
	// by construction.
	FormatBinary
)

// binaryMagic identifies a binary trace stream (format version 1).
var binaryMagic = [8]byte{'O', 'S', 'T', 'R', 'A', 'C', 'E', '1'}

// LakeMagic identifies a columnar lake container (internal/tracelake).
// The row-oriented readers here cannot stream one — a lake needs random
// access to its footer index — so ReadTrace recognizes the magic and
// fails with a pointer to the lake API instead of misparsing the bytes
// as JSONL. Defined here, beside the other stream magics, so format
// sniffing has one home; tracelake asserts it matches its own header.
var LakeMagic = [8]byte{'O', 'S', 'L', 'A', 'K', 'E', '1', '\n'}

// binaryFrameSize is the fixed record width of FormatBinary.
const binaryFrameSize = 40

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

// Writer records the event stream it observes. It implements Probe, so
// installing a trace is just attaching it to the bus (WithTrace does).
// Writes are buffered; call Flush when the run is over. I/O errors are
// sticky: the first one stops further writes and is reported by Flush
// and Err.
type Writer struct {
	bw     *bufio.Writer
	format Format
	enc    *json.Encoder
	frame  [binaryFrameSize]byte
	err    error
	events uint64
	wrote  bool
}

// NewWriter returns a trace writer emitting the given format to w.
func NewWriter(w io.Writer, format Format) *Writer {
	bw := bufio.NewWriter(w)
	tw := &Writer{bw: bw, format: format}
	if format == FormatJSONL {
		tw.enc = json.NewEncoder(bw)
	}
	return tw
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
	if !w.wrote {
		w.wrote = true
		if w.format == FormatBinary {
			if _, err := w.bw.Write(binaryMagic[:]); err != nil {
				w.err = err
				return
			}
		}
	}
	switch w.format {
	case FormatJSONL:
		w.err = w.enc.Encode(traceRecord{
			Type: ev.Type.String(), T: ev.T,
			From: ev.From, To: ev.To,
			Kind: ev.Kind, Round: ev.Round,
			Value: ev.Value, Aux: ev.Aux,
		})
	case FormatBinary:
		b := w.frame[:]
		b[0] = byte(ev.Type)
		b[1] = 0
		binary.LittleEndian.PutUint16(b[2:4], ev.Kind)
		binary.LittleEndian.PutUint32(b[4:8], uint32(ev.From))
		binary.LittleEndian.PutUint32(b[8:12], uint32(ev.To))
		binary.LittleEndian.PutUint32(b[12:16], uint32(ev.Round))
		binary.LittleEndian.PutUint64(b[16:24], math.Float64bits(ev.T))
		binary.LittleEndian.PutUint64(b[24:32], math.Float64bits(ev.Value))
		binary.LittleEndian.PutUint64(b[32:40], math.Float64bits(ev.Aux))
		_, w.err = w.bw.Write(b)
	}
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

// ReadTrace decodes a trace stream (either format, auto-detected from
// the leading bytes) and invokes fn for every event in order. A non-nil
// error from fn aborts the read and is returned.
func ReadTrace(r io.Reader, fn func(Event) error) error {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(binaryMagic))
	if err == io.EOF && len(head) == 0 {
		return nil // empty trace: a run nobody observed
	}
	if err == nil && [8]byte(head) == binaryMagic {
		return readBinary(br, fn)
	}
	if err == nil && [8]byte(head) == LakeMagic {
		return errors.New("probe: stream is a columnar trace lake, not a row trace; " +
			"open it with optsync.OpenLake (or tracelake.Open) instead of ReplayTrace")
	}
	return readJSONL(br, fn)
}

func readBinary(br *bufio.Reader, fn func(Event) error) error {
	if _, err := io.ReadFull(br, make([]byte, len(binaryMagic))); err != nil {
		return err
	}
	var b [binaryFrameSize]byte
	for n := uint64(0); ; n++ {
		off := uint64(len(binaryMagic)) + n*binaryFrameSize
		if _, err := io.ReadFull(br, b[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			if err == io.ErrUnexpectedEOF {
				return fmt.Errorf("probe: binary trace truncated mid-frame at event %d (byte offset %d)", n, off)
			}
			return err
		}
		t := Type(b[0])
		if t <= typeInvalid || t >= numTypes {
			return fmt.Errorf("probe: binary trace frame %d (byte offset %d) has invalid event type %d", n, off, b[0])
		}
		ev := Event{
			Type:  t,
			Kind:  binary.LittleEndian.Uint16(b[2:4]),
			From:  int32(binary.LittleEndian.Uint32(b[4:8])),
			To:    int32(binary.LittleEndian.Uint32(b[8:12])),
			Round: int32(binary.LittleEndian.Uint32(b[12:16])),
			T:     math.Float64frombits(binary.LittleEndian.Uint64(b[16:24])),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(b[24:32])),
			Aux:   math.Float64frombits(binary.LittleEndian.Uint64(b[32:40])),
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
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
// trace reproduce the aggregates of the original run exactly: both
// formats round-trip float64 values bit-for-bit.
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
