package experiment_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optsync/internal/campaign"
	"optsync/internal/experiment"
	"optsync/internal/harness"
)

// The experiment suite's golden tables and store resume. The claim each
// table must show is tested in internal/harness.

// experimentsGolden holds every table of the experiment suite as
// `syncsim -exp all -json` prints it, with the scaling tier's wall-clock
// column masked. Regenerate with
//
//	go test ./internal/experiment -run TestExperimentTablesGolden -update-experiments
//
// only when a change to the tables is intended and reviewed.
var (
	experimentsGolden = filepath.Join("testdata", "experiments.golden.jsonl")
	updateExperiments = flag.Bool("update-experiments", false, "rewrite "+experimentsGolden)
)

// encodeTables appends tables to buf one JSON object a line, as syncsim
// -json prints them, with the wall_s column masked.
func encodeTables(t *testing.T, buf *bytes.Buffer, tables []*harness.Table) {
	t.Helper()
	enc := json.NewEncoder(buf)
	for _, tb := range tables {
		if err := enc.Encode(maskWallClock(tb)); err != nil {
			t.Fatal(err)
		}
	}
}

// suiteJSON runs the whole suite with the given options and encodes its
// tables.
func suiteJSON(t *testing.T, opts campaign.Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, e := range experiment.All() {
		tables, err := e.Run(context.Background(), opts)
		if err != nil {
			t.Fatalf("experiment %s: %v", e.ID, err)
		}
		encodeTables(t, &buf, tables)
	}
	return buf.Bytes()
}

// maskWallClock blanks the wall_s column, the one cell of the suite that
// is host time rather than a function of the specs.
func maskWallClock(tb *harness.Table) *harness.Table {
	col := -1
	for i, c := range tb.Columns {
		if c == "wall_s" {
			col = i
		}
	}
	if col < 0 {
		return tb
	}
	masked := *tb
	masked.Rows = make([][]string, len(tb.Rows))
	for i, row := range tb.Rows {
		masked.Rows[i] = append([]string(nil), row...)
		masked.Rows[i][col] = "masked"
	}
	return &masked
}

// TestExperimentTablesGolden pins the bytes of every experiment table,
// serial and at the default worker count.
func TestExperimentTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite")
	}
	if *updateExperiments {
		if err := os.WriteFile(experimentsGolden, suiteJSON(t, campaign.Options{Workers: 1}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		if got := suiteJSON(t, campaign.Options{Workers: workers}); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: tables differ from %s (rerun with -update-experiments and diff)", workers, experimentsGolden)
		}
	}
}

// TestExperimentStoreResume settles two campaign experiments against a
// store, reopens it and settles them again: the second pass executes no
// cell and renders the golden tables from the stored results alone.
func TestExperimentStoreResume(t *testing.T) {
	if testing.Short() {
		t.Skip("T1 sweep")
	}
	golden, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatal(err)
	}
	goldenLine := map[string][]byte{}
	for _, line := range bytes.SplitAfter(golden, []byte("\n")) {
		var tb harness.Table
		if json.Unmarshal(line, &tb) == nil {
			goldenLine[strings.SplitN(tb.Title, ":", 2)[0]] = line
		}
	}
	dir := t.TempDir()
	for pass := 1; pass <= 2; pass++ {
		store, err := campaign.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cells := 0
		for _, id := range []string{"T1", "T4"} {
			e, _ := experiment.Find(id)
			tables, err := e.Run(context.Background(), campaign.Options{
				Store:    store,
				Progress: func(done, total int) { cells++ },
			})
			if err != nil {
				t.Fatalf("pass %d: %s: %v", pass, id, err)
			}
			var got bytes.Buffer
			encodeTables(t, &got, tables)
			if !bytes.Equal(got.Bytes(), goldenLine[id]) {
				t.Errorf("pass %d: %s table differs from the golden:\n%s", pass, id, got.Bytes())
			}
		}
		stats := store.Stats()
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if cells != 54+6 {
			t.Fatalf("pass %d settled %d cells, want 60", pass, cells)
		}
		want := campaign.Stats{Misses: 60, Puts: 60}
		if pass == 2 {
			want = campaign.Stats{Hits: 60}
		}
		if stats.Hits != want.Hits || stats.Misses != want.Misses || stats.Puts != want.Puts {
			t.Fatalf("pass %d: store hits %d misses %d puts %d, want %d %d %d",
				pass, stats.Hits, stats.Misses, stats.Puts, want.Hits, want.Misses, want.Puts)
		}
	}
}
