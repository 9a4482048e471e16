package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"optsync"
)

// traceLine is the part of a JSONL trace line these tests check.
type traceLine struct {
	Type string `json:"type"`
	From int32  `json:"from"`
	To   int32  `json:"to"`
}

// recordLake records the canonical test run as a lake and returns its
// path.
func recordLake(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.lake")
	if _, err := capture(t, func() error { return run(traceRunArgs(path)) }); err != nil {
		t.Fatal(err)
	}
	return path
}

// refCount counts the events a query admits via the public API — the
// reference the CLI output is checked against.
func refCount(t *testing.T, path string, q optsync.LakeQuery) int {
	t.Helper()
	n := 0
	if _, err := optsync.QueryLake(path, q, func(optsync.Event) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestQuerySubcommandJSONL(t *testing.T) {
	path := recordLake(t)
	out, err := capture(t, func() error {
		return run([]string{"query", "-in", path, "-type", "pulse"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines {
		var rec traceLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("query line not JSON: %v\n%s", err, line)
		}
		if rec.Type != "pulse" {
			t.Fatalf("typed query leaked a %q event", rec.Type)
		}
	}
	want := refCount(t, path, optsync.LakeQuery{}.WithTypes(optsync.EventPulse))
	if len(lines) != want || want == 0 {
		t.Fatalf("query emitted %d events, reference %d", len(lines), want)
	}

	// The JSONL output is a valid row trace: it pipes back into replay.
	cols, n, err := replayAggregates(&recording{rows: strings.NewReader(out)})
	if err != nil {
		t.Fatal(err)
	}
	if n != want || len(cols) == 0 {
		t.Fatalf("query output replayed %d events, want %d", n, want)
	}
}

func TestQuerySubcommandCSVTimeRange(t *testing.T) {
	path := recordLake(t)
	out, err := capture(t, func() error {
		return run([]string{"query", "-in", path, "-type", "skew_sample", "-from", "1", "-to", "2", "-csv"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "type,t,from,to,kind,round,value,aux" {
		t.Fatalf("csv header = %q", lines[0])
	}
	for _, line := range lines[1:] {
		fields := strings.Split(line, ",")
		if fields[0] != "skew_sample" {
			t.Fatalf("csv row leaked type %q", fields[0])
		}
		var tm float64
		if _, err := fmt.Sscanf(fields[1], "%g", &tm); err != nil || tm < 1 || tm > 2 {
			t.Fatalf("csv row t=%q outside [1,2] (err %v)", fields[1], err)
		}
	}
	q := optsync.LakeQuery{}.WithTypes(optsync.EventSkewSample).WithTimeRange(1, 2)
	if want := refCount(t, path, q); len(lines)-1 != want || want == 0 {
		t.Fatalf("csv emitted %d rows, reference %d", len(lines)-1, want)
	}
}

func TestQuerySubcommandNodeFilter(t *testing.T) {
	path := recordLake(t)
	out, err := capture(t, func() error {
		return run([]string{"query", "-in", path, "-type", "message_sent", "-node", "3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	for _, line := range lines {
		var rec traceLine
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.From != 3 && rec.To != 3 {
			t.Fatalf("node query leaked event from=%d to=%d", rec.From, rec.To)
		}
	}
	q := optsync.LakeQuery{}.WithTypes(optsync.EventMessageSent).WithNode(3)
	if want := refCount(t, path, q); len(lines) != want || want == 0 {
		t.Fatalf("query emitted %d events, reference %d", len(lines), want)
	}
}

func TestQuerySubcommandStats(t *testing.T) {
	path := recordLake(t)
	out, err := capture(t, func() error {
		return run([]string{"query", "-in", path, "-type", "pulse", "-stats"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lake query", "blocks total", "blocks pruned", "blocks scanned", "events matched"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
	want := refCount(t, path, optsync.LakeQuery{}.WithTypes(optsync.EventPulse))
	if !strings.Contains(out, fmt.Sprint(want)) {
		t.Fatalf("stats output missing matched count %d:\n%s", want, out)
	}
	// A single-type query must actually prune: the run emits many types,
	// each in its own blocks.
	if strings.Contains(out, "blocks pruned   0\n") {
		t.Fatalf("typed query pruned nothing:\n%s", out)
	}
}

// TestQueryWorkersByteIdentical is the CLI half of the parallel-scan
// determinism contract: every output mode — JSONL in block order,
// -ordered merge, CSV — must produce byte-identical output at workers
// 1, 2, and 8, both for a serially recorded lake and for one recorded
// by the sharded engine (-shards 8), whose block layout already
// interleaved multiple producers.
func TestQueryWorkersByteIdentical(t *testing.T) {
	sharded := filepath.Join(t.TempDir(), "sharded.lake")
	if _, err := capture(t, func() error {
		return run([]string{"-run", "-n", "5", "-horizon", "6", "-seed", "3",
			"-partition", "2:4:2", "-shards", "8", "-trace", sharded})
	}); err != nil {
		t.Fatal(err)
	}
	lakes := map[string]string{"serial": recordLake(t), "sharded": sharded}
	modes := map[string][]string{
		"jsonl":   nil,
		"ordered": {"-ordered"},
		"csv":     {"-csv"},
	}
	for lname, path := range lakes {
		for mname, extra := range modes {
			base := append([]string{"query", "-in", path}, extra...)
			ref, err := capture(t, func() error { return run(append(base, "-workers", "1")) })
			if err != nil {
				t.Fatal(err)
			}
			if strings.TrimSpace(ref) == "" {
				t.Fatalf("%s/%s: empty output", lname, mname)
			}
			for _, w := range []string{"2", "8"} {
				out, err := capture(t, func() error { return run(append(base, "-workers", w)) })
				if err != nil {
					t.Fatal(err)
				}
				if out != ref {
					t.Fatalf("%s/%s: -workers %s output differs from -workers 1", lname, mname, w)
				}
			}
		}
	}

	// The block-order JSONL stream is still a valid row trace: replay
	// aggregates are order-insensitive per collector contract and must
	// match the ordered stream's.
	path := lakes["serial"]
	unordered, err := capture(t, func() error { return run([]string{"query", "-in", path, "-workers", "8"}) })
	if err != nil {
		t.Fatal(err)
	}
	n := refCount(t, path, optsync.LakeQuery{})
	if _, got, err := replayAggregates(&recording{rows: strings.NewReader(unordered)}); err != nil || got != n {
		t.Fatalf("unordered output replayed %d events, want %d (err %v)", got, n, err)
	}
}

// TestQueryStatsCoveredFastPath pins the footer-only -stats short
// circuit: a whole-lake count has every block fully covered by the
// footer, so nothing is decoded.
func TestQueryStatsCoveredFastPath(t *testing.T) {
	path := recordLake(t)
	out, err := capture(t, func() error {
		return run([]string{"query", "-in", path, "-stats"})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, re := range []string{`blocks scanned\s+0\b`, `rows decoded\s+0\b`, `blocks pruned\s+0\b`} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Fatalf("whole-lake stats decoded something, want %s:\n%s", re, out)
		}
	}
	if regexp.MustCompile(`blocks covered\s+0\b`).MatchString(out) {
		t.Fatalf("whole-lake stats covered no blocks:\n%s", out)
	}
	want := refCount(t, path, optsync.LakeQuery{})
	if !regexp.MustCompile(`events matched\s+` + fmt.Sprint(want) + `\b`).MatchString(out) {
		t.Fatalf("stats missing matched count %d:\n%s", want, out)
	}
}

func TestQuerySubcommandErrors(t *testing.T) {
	if err := run([]string{"query"}); err == nil || !strings.Contains(err.Error(), "-in") {
		t.Fatalf("missing -in not reported: %v", err)
	}
	if err := run([]string{"query", "-in", "/no/such/file"}); err == nil {
		t.Fatal("missing file not reported")
	}

	path := recordLake(t)
	if err := run([]string{"query", "-in", path, "-type", "no_such_type"}); err == nil ||
		!strings.Contains(err.Error(), "unknown event type") {
		t.Fatalf("bad type not reported: %v", err)
	}

	if err := run([]string{"query", "-in", path, "-workers", "-1"}); err == nil ||
		!strings.Contains(err.Error(), "worker") {
		t.Fatalf("negative -workers not reported: %v", err)
	}

	// A row trace is rejected with the conversion recipe, not misparsed.
	rows := filepath.Join(t.TempDir(), "run.jsonl")
	if _, err := capture(t, func() error { return run(traceRunArgs(rows)) }); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"query", "-in", rows}); err == nil ||
		!strings.Contains(err.Error(), "not a trace lake") || !strings.Contains(err.Error(), "-out") {
		t.Fatalf("row trace not rejected with recipe: %v", err)
	}
}

// TestQueryRejectsBadFlagValues: a node id or round int32 cannot hold
// would wrap to another id (-node 4294967297 answered for node 1), and a
// NaN bound would match everything. Each is an error naming its flag.
func TestQueryRejectsBadFlagValues(t *testing.T) {
	path := recordLake(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-node", "4294967297"}, "-node 4294967297"},
		{[]string{"-node", "-2147483649"}, "-node -2147483649"},
		{[]string{"-round", "4294967298"}, "-round 4294967298"},
		{[]string{"-round", "2147483648"}, "-round 2147483648"},
		{[]string{"-from", "NaN"}, "-from NaN"},
		{[]string{"-to", "nan"}, "-to NaN"},
		{[]string{"-from", "1", "-to", "NaN", "-stats"}, "-to NaN"},
	} {
		err := run(append([]string{"query", "-in", path}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("query %v: got %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
	// The int32 edges themselves are ids, not errors.
	for _, args := range [][]string{{"-node", "2147483647"}, {"-round", "-2147483648"}, {"-from", "-Inf"}} {
		if _, err := capture(t, func() error { return run(append([]string{"query", "-in", path, "-stats"}, args...)) }); err != nil {
			t.Errorf("query %v: %v", args, err)
		}
	}
}
