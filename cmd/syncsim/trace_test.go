package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optsync"
)

// traceRunArgs is the canonical custom run the trace tests record: small
// but with a partition window so partition markers appear in the stream.
func traceRunArgs(path string) []string {
	return []string{
		"-run", "-n", "5", "-horizon", "6", "-seed", "3",
		"-partition", "2:4:2", "-trace", path,
	}
}

// TestTraceRoundTripCLI is the end-to-end acceptance check: a run's
// exported trace, replayed through `syncsim trace`, reproduces the live
// collectors' aggregates byte-for-byte — in both encodings.
func TestTraceRoundTripCLI(t *testing.T) {
	for _, name := range []string{"run.jsonl", "run.lake"} {
		path := filepath.Join(t.TempDir(), name)
		if _, err := capture(t, func() error { return run(traceRunArgs(path)) }); err != nil {
			t.Fatal(err)
		}

		// The live reference: the same spec, collectors attached in-process.
		sf := addSpecFlagsForTest(t, []string{"-n", "5", "-horizon", "6", "-seed", "3", "-partition", "2:4:2"})
		spec, err := sf.spec()
		if err != nil {
			t.Fatal(err)
		}
		live := traceCollectors()
		opts := make([]optsync.Option, len(live))
		for i, c := range live {
			opts[i] = optsync.WithCollector(c)
		}
		if _, err := optsync.Run(context.Background(), spec, opts...); err != nil {
			t.Fatal(err)
		}

		rec, err := openRecording(path)
		if err != nil {
			t.Fatal(err)
		}
		if (rec.lake != nil) != strings.HasSuffix(path, ".lake") {
			t.Fatalf("%s: opened as lake = %v", name, rec.lake != nil)
		}
		replayed, n, err := replayAggregates(rec)
		rec.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			t.Fatal("no events replayed")
		}
		liveOut := renderAggregates(live, n)
		replayOut := renderAggregates(replayed, n)
		if liveOut != replayOut {
			t.Fatalf("%s: replayed aggregates diverge from live run\nlive:\n%s\nreplay:\n%s",
				name, liveOut, replayOut)
		}
	}
}

// TestOpenRecordingStdin: "-" routes stdin by its leading bytes as a path
// is routed — a lake read into memory, a row trace streamed — and replays
// the same events as opening the file by name.
func TestOpenRecordingStdin(t *testing.T) {
	for _, name := range []string{"run.jsonl", "run.lake"} {
		path := filepath.Join(t.TempDir(), name)
		if _, err := capture(t, func() error { return run(traceRunArgs(path)) }); err != nil {
			t.Fatal(err)
		}
		byPath, err := openRecording(path)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := replayAggregates(byPath)
		byPath.Close()
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		stdin := os.Stdin
		os.Stdin = f
		rec, err := openRecording("-")
		os.Stdin = stdin
		if err != nil {
			t.Fatal(err)
		}
		_, got, err := replayAggregates(rec)
		rec.Close()
		f.Close()
		if err != nil || got != want || (rec.lake != nil) != (byPath.lake != nil) {
			t.Fatalf("%s on stdin: lake %v, %d events (err %v); by path: lake %v, %d events",
				name, rec.lake != nil, got, err, byPath.lake != nil, want)
		}
	}
}

// addSpecFlagsForTest parses spec flags the way run() does.
func addSpecFlagsForTest(t *testing.T, args []string) *specFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	sf := addSpecFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return sf
}

func TestTraceSubcommandTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, err := capture(t, func() error { return run(traceRunArgs(path)) }); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"trace", "-in", path}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"trace aggregates", "skew", "p95_s", "messages", "sent", "events replayed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceSubcommandJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if _, err := capture(t, func() error { return run(traceRunArgs(path)) }); err != nil {
		t.Fatal(err)
	}
	out, err := capture(t, func() error { return run([]string{"trace", "-in", path, "-json"}) })
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Events     int                       `json:"events"`
		Collectors map[string][]optsync.Stat `json:"collectors"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("trace -json output not JSON: %v\n%s", err, out)
	}
	if rep.Events == 0 || len(rep.Collectors) != 4 {
		t.Fatalf("trace -json = %+v", rep)
	}
	if _, ok := rep.Collectors["skew"]; !ok {
		t.Fatalf("skew collector missing: %v", rep.Collectors)
	}
}

// TestTraceConvertChain drives the conversion path through both
// encodings and back: jsonl -> lake -> jsonl must reproduce the original
// file bit-for-bit (the lake's seq column restores exact stream order,
// and both encodings round-trip float64 bits).
func TestTraceConvertChain(t *testing.T) {
	dir := t.TempDir()
	orig := filepath.Join(dir, "run.jsonl")
	if _, err := capture(t, func() error { return run(traceRunArgs(orig)) }); err != nil {
		t.Fatal(err)
	}
	lake := filepath.Join(dir, "a.lake")
	back := filepath.Join(dir, "b.jsonl")
	for _, step := range [][2]string{{orig, lake}, {lake, back}} {
		out, err := capture(t, func() error {
			return run([]string{"trace", "-in", step[0], "-out", step[1]})
		})
		if err != nil {
			t.Fatalf("convert %s -> %s: %v", step[0], step[1], err)
		}
		if !strings.Contains(out, "converted") {
			t.Fatalf("conversion reported nothing: %q", out)
		}
	}
	a, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("jsonl -> lake -> jsonl drifted: %d vs %d bytes", len(a), len(b))
	}
}

// TestTraceLakeAggregatesMatchRowTrace is the CLI-layer byte-diff the CI
// smoke step automates: the same deterministic run recorded as a row
// trace and as a lake must replay to byte-identical aggregate tables.
func TestTraceLakeAggregatesMatchRowTrace(t *testing.T) {
	dir := t.TempDir()
	rows := filepath.Join(dir, "run.jsonl")
	lake := filepath.Join(dir, "run.lake")
	for _, path := range []string{rows, lake} {
		if _, err := capture(t, func() error { return run(traceRunArgs(path)) }); err != nil {
			t.Fatal(err)
		}
	}
	rowsOut, err := capture(t, func() error { return run([]string{"trace", "-in", rows}) })
	if err != nil {
		t.Fatal(err)
	}
	lakeOut, err := capture(t, func() error { return run([]string{"trace", "-in", lake}) })
	if err != nil {
		t.Fatal(err)
	}
	if rowsOut != lakeOut {
		t.Fatalf("lake aggregates diverge from row-trace aggregates\njsonl:\n%s\nlake:\n%s", rowsOut, lakeOut)
	}
}

func TestTraceSubcommandErrors(t *testing.T) {
	if err := run([]string{"trace"}); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Fatalf("missing -in not reported: %v", err)
	}
	if err := run([]string{"trace", "-in", "/no/such/file"}); err == nil {
		t.Fatal("missing file not reported")
	}
	if err := run([]string{"-trace", "x.jsonl", "-exp", "T6"}); err == nil ||
		!strings.Contains(err.Error(), "-trace") {
		t.Fatalf("-trace outside -run not rejected: %v", err)
	}
}

// TestBinaryTraceExtensionRefused: .bin and .trace used to select the
// binary row format PR 22 removed. Recording or converting to one is an
// error that names the two formats left, and creates no file — not JSONL
// written under a binary extension.
func TestBinaryTraceExtensionRefused(t *testing.T) {
	dir := t.TempDir()
	rows := filepath.Join(dir, "run.jsonl")
	if _, err := capture(t, func() error { return run(traceRunArgs(rows)) }); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x.bin", "x.trace"} {
		path := filepath.Join(dir, name)
		for what, args := range map[string][]string{
			"-run -trace": traceRunArgs(path),
			"trace -out":  {"trace", "-in", rows, "-out", path},
		} {
			_, err := capture(t, func() error { return run(args) })
			if !errors.Is(err, optsync.ErrBinaryTraceRemoved) ||
				!strings.Contains(err.Error(), ".lake") || !strings.Contains(err.Error(), "JSONL") {
				t.Fatalf("%s %s: err = %v, want the removed-format error", what, name, err)
			}
			if _, serr := os.Stat(path); !os.IsNotExist(serr) {
				t.Fatalf("%s %s left a file behind (stat: %v)", what, name, serr)
			}
		}
	}
}

// closeFailer is a trace destination that takes every byte and then
// fails to close, as a full disk or an NFS write-back does.
type closeFailer struct{ bytes.Buffer }

var errCloseFailed = errors.New("close: no space left on device")

func (*closeFailer) Close() error { return errCloseFailed }

// TestCustomRunReportsTraceCloseError: a trace whose file fails at close
// is truncated, so the run must not report success — in table, -json and
// lake form alike. A run that failed on its own keeps its own error.
func TestCustomRunReportsTraceCloseError(t *testing.T) {
	defer func(orig func(string) (io.WriteCloser, error)) { createTraceFile = orig }(createTraceFile)
	var dst *closeFailer
	createTraceFile = func(string) (io.WriteCloser, error) {
		dst = &closeFailer{}
		return dst, nil
	}
	for _, args := range [][]string{
		traceRunArgs("run.jsonl"),
		append(traceRunArgs("run.jsonl"), "-json"),
		traceRunArgs("run.lake"),
	} {
		_, err := capture(t, func() error { return run(args) })
		if !errors.Is(err, errCloseFailed) {
			t.Fatalf("%v: err = %v, want the close error", args, err)
		}
		if dst.Len() == 0 {
			t.Fatalf("%v: nothing was written before the close", args)
		}
	}
	_, err := capture(t, func() error { return run(append(traceRunArgs("run.jsonl"), "-attack", "no-such-attack")) })
	if err == nil || errors.Is(err, errCloseFailed) {
		t.Fatalf("failed run: err = %v, want the run's own error", err)
	}
}
