package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"optsync"
)

// traceCollectors is the aggregate set the trace subcommand replays into
// — the bounded-memory collectors, in presentation order. Replaying a
// run's trace through them reproduces the live run's aggregates exactly
// (both trace encodings round-trip float64 bit-for-bit).
func traceCollectors() []optsync.Collector {
	return []optsync.Collector{
		optsync.NewSkewCollector(),
		optsync.NewSpreadCollector(),
		optsync.NewMsgCollector(),
		optsync.NewReintegrationCollector(),
	}
}

// replayStream feeds every event of a recorded stream (row trace or
// lake, auto-detected from the leading bytes) through the probes in
// recorded order. Lakes need random access to their footer index, so a
// lake arriving on a pipe is buffered in memory first.
func replayStream(r io.Reader, probes ...optsync.Probe) (int, error) {
	br := newSniffReader(r)
	if br.isLake() {
		data, err := io.ReadAll(br)
		if err != nil {
			return 0, err
		}
		l, err := optsync.OpenLakeBytes(data)
		if err != nil {
			return 0, err
		}
		defer l.Close()
		return l.Replay(optsync.LakeQuery{}, probes...)
	}
	return optsync.ReplayTrace(br, probes...)
}

// sniffReader wraps a stream with an 8-byte lookahead for format
// routing.
type sniffReader struct {
	head []byte
	r    io.Reader
}

func newSniffReader(r io.Reader) *sniffReader {
	head := make([]byte, len(optsync.LakeMagic))
	n, _ := io.ReadFull(r, head)
	return &sniffReader{head: head[:n], r: r}
}

func (s *sniffReader) isLake() bool { return bytes.Equal(s.head, optsync.LakeMagic[:]) }

func (s *sniffReader) Read(p []byte) (int, error) {
	if len(s.head) > 0 {
		n := copy(p, s.head)
		s.head = s.head[n:]
		return n, nil
	}
	return s.r.Read(p)
}

// replayAggregates replays a trace stream through fresh collectors and
// returns them with the replayed event count.
func replayAggregates(r io.Reader) ([]optsync.Collector, int, error) {
	cols := traceCollectors()
	probes := make([]optsync.Probe, len(cols))
	for i, c := range cols {
		probes[i] = c
	}
	n, err := replayStream(r, probes...)
	return cols, n, err
}

// renderAggregates renders collector aggregates as one aligned table —
// shared by `syncsim trace` and the round-trip tests that compare live
// and replayed output byte for byte.
func renderAggregates(cols []optsync.Collector, events int) string {
	t := optsync.NewTable("trace aggregates", "collector", "stat", "value")
	for _, c := range cols {
		for _, s := range c.Aggregate() {
			t.AddRow(c.Name(), s.Key, optsync.F(s.Value))
		}
	}
	t.AddNote("%d events replayed", events)
	return t.Render()
}

// traceJSON is the machine-readable projection of replayed aggregates.
type traceJSON struct {
	Events     int                       `json:"events"`
	Collectors map[string][]optsync.Stat `json:"collectors"`
}

// runTraceCmd implements `syncsim trace -in FILE [-json]` (replay a
// recorded stream through the built-in collectors and print their
// aggregates) and `syncsim trace -in FILE -out FILE` (convert between
// the two trace encodings, output format picked by extension).
func runTraceCmd(args []string) error {
	fs := flag.NewFlagSet("syncsim trace", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "trace file to read (jsonl or lake, auto-detected; - for stdin)")
		out     = fs.String("out", "", "convert to this file instead of replaying aggregates (.lake = columnar lake, else JSONL)")
		jsonOut = fs.Bool("json", false, "emit JSON instead of an aligned table")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("trace: -in FILE is required (record one with: syncsim -run ... -trace FILE)")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	if *out != "" {
		return convertTrace(r, *out)
	}
	cols, n, err := replayAggregates(r)
	if err != nil {
		return err
	}
	if *jsonOut {
		o := traceJSON{Events: n, Collectors: make(map[string][]optsync.Stat, len(cols))}
		for _, c := range cols {
			o.Collectors[c.Name()] = c.Aggregate()
		}
		enc := json.NewEncoder(os.Stdout)
		return enc.Encode(o)
	}
	fmt.Println(renderAggregates(cols, n))
	return nil
}

// convertTrace streams every event of r into a fresh sink at path. The
// conversion is lossless: events pass through as values, so a round trip
// between the two encodings reproduces the stream bit-for-bit.
func convertTrace(r io.Reader, path string) error {
	sink, f, err := traceSinkFor(path)
	if err != nil {
		return err
	}
	n, err := replayStream(r, sink)
	if err != nil {
		f.Close()
		return err
	}
	if err := sink.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("converted %d events to %s\n", n, path)
	return nil
}

// traceSink is what both trace-writer families look like from the
// conversion and recording paths: a probe that buffers, counts, and
// finalizes on Flush.
type traceSink interface {
	optsync.Probe
	Flush() error
	Events() uint64
}

// createTraceFile opens a trace destination. Tests swap in one whose
// Close fails, which no real file does on demand.
var createTraceFile = func(path string) (io.WriteCloser, error) { return os.Create(path) }

// traceSinkFor creates path and picks the encoding by extension: .lake
// for the columnar lake container, anything else JSON Lines — except the
// extensions that used to select the removed binary row format, which
// are refused before anything is created rather than filled with JSONL.
func traceSinkFor(path string) (traceSink, io.Closer, error) {
	if strings.HasSuffix(path, ".bin") || strings.HasSuffix(path, ".trace") {
		return nil, nil, fmt.Errorf("%s: %w", path, optsync.ErrBinaryTraceRemoved)
	}
	f, err := createTraceFile(path)
	if err != nil {
		return nil, nil, err
	}
	if strings.HasSuffix(path, ".lake") {
		return optsync.NewLakeWriter(f), f, nil
	}
	return optsync.NewTraceWriter(f), f, nil
}

// traceOption wraps a sink in the matching recording option for Run.
func traceOption(sink traceSink) optsync.Option {
	if w, ok := sink.(*optsync.LakeWriter); ok {
		return optsync.WithLakeTrace(w)
	}
	return optsync.WithTrace(sink.(*optsync.TraceWriter))
}
