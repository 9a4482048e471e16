package main

import (
	"bufio"
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

// recording is a recorded stream opened for reading: a lake, or else a
// row trace that streams. Close releases what was opened.
type recording struct {
	lake   *optsync.Lake
	rows   io.Reader
	closer io.Closer
}

// openRecording opens the -in argument, a path or "-" for stdin, and
// routes it by its leading bytes. A lake file is opened with OpenLake,
// so it is mapped rather than copied; a lake on stdin is read into
// memory, since a lake needs random access to its footer. Anything else
// is taken for a row trace and streams.
func openRecording(in string) (*recording, error) {
	rec := &recording{}
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		src, rec.closer = f, f
	}
	br := bufio.NewReader(src)
	if head, _ := br.Peek(len(optsync.LakeMagic)); !bytes.Equal(head, optsync.LakeMagic[:]) {
		rec.rows = br
		return rec, nil
	}
	var err error
	if in == "-" {
		var data []byte
		if data, err = io.ReadAll(br); err == nil {
			rec.lake, err = optsync.OpenLakeBytes(data)
		}
	} else {
		rec.closer.Close()
		rec.lake, err = optsync.OpenLake(in)
	}
	if err != nil {
		return nil, err
	}
	rec.closer = rec.lake
	return rec, nil
}

func (r *recording) Close() error {
	if r.closer == nil {
		return nil
	}
	return r.closer.Close()
}

// replay feeds every event of the recording through the probes in
// recorded order.
func (r *recording) replay(probes ...optsync.Probe) (int, error) {
	if r.lake != nil {
		return r.lake.Replay(optsync.LakeQuery{}, probes...)
	}
	return optsync.ReplayTrace(r.rows, probes...)
}

// replayAggregates replays a recording through fresh collectors and
// returns them with the replayed event count.
func replayAggregates(r *recording) ([]optsync.Collector, int, error) {
	cols := traceCollectors()
	probes := make([]optsync.Probe, len(cols))
	for i, c := range cols {
		probes[i] = c
	}
	n, err := r.replay(probes...)
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
	r, err := openRecording(*in)
	if err != nil {
		return err
	}
	defer r.Close()
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
func convertTrace(r *recording, path string) error {
	sink, f, err := traceSinkFor(path)
	if err != nil {
		return err
	}
	n, err := r.replay(sink)
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
