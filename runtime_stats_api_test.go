package optsync

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"optsync/internal/fabric"
)

// runtimeWords matches any name Result.Runtime or Store.Stats could
// surface under.
var runtimeWords = regexp.MustCompile(`(?i)runtime|arena|ladder|slots|chunks|timers|tombstones|mailbox|deaf|"sig|asked|computed|puts|batches|bytes_appended|"hits|misses|damaged|seals|sealed|recovered|torn`)

// TestRuntimeStatsStayOutOfEveryRecord: Result.Runtime describes the
// execution, not the result — it may differ between shard counts — so it
// must reach neither sink, nor a store cell (unsealed or sealed), nor a
// fabric report body, and a stored result must come back without it. The
// same holds for the store's own counters (StoreStats): they are on
// /progress and nowhere else — not in a store file, not in a report.
func TestRuntimeStatsStayOutOfEveryRecord(t *testing.T) {
	spec := Spec{Algo: AlgoAuth, Params: testParams(t, 5, Auth), FaultyCount: 1, Attack: AttackSilent, Horizon: 4, Seed: 3}
	var jsonOut, csvOut bytes.Buffer
	res, err := Run(context.Background(), spec, WithSink(NewJSONSink(&jsonOut)), WithSink(NewCSVSink(&csvOut)))
	if err != nil {
		t.Fatal(err)
	}
	if rt := res.Runtime; rt.Arena.Slots == 0 || rt.Arena.Refs <= rt.Arena.Slots || rt.Arena.Deaf == 0 || rt.Sig.Asked == 0 || rt.Sig.Computed >= rt.Sig.Asked ||
		rt.Ladder.Timers == 0 || rt.Ladder.Tombstones == 0 || rt.Ladder.Seals == 0 || rt.Ladder.Sealed < rt.Ladder.Seals {
		t.Fatalf("Result.Runtime not filled in: %+v", res.Runtime)
	}
	key, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	records := map[string][]byte{"json sink": jsonOut.Bytes(), "csv sink": csvOut.Bytes()}

	wire, err := json.Marshal(fabric.ReportRequest{Worker: "w", Cells: []fabric.CellReport{{Key: key, Result: res}}})
	if err != nil {
		t.Fatal(err)
	}
	records["fabric report"] = wire

	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	collect := func(stage string) {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			records[stage+" "+d.Name()] = b
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	collect("unsealed")
	if _, err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	collect("sealed")
	back, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("stored cell not found: %v", err)
	}
	if back.Runtime != (RuntimeStats{}) {
		t.Errorf("a stored result came back with runtime counters %+v", back.Runtime)
	}
	if st := store.Stats(); st != (StoreStats{Puts: 1, Batches: 1, BytesAppended: st.BytesAppended, Hits: 1, Seals: 1}) {
		t.Fatalf("store counters = %+v", st)
	}
	// The one place they do appear, so the pattern is known to bite.
	progress, err := json.Marshal(FabricProgress{Store: store.Stats()})
	if err != nil || !runtimeWords.Match(progress) {
		t.Fatalf("/progress body does not carry the store counters: %s (%v)", progress, err)
	}
	// A coordinator's answer to a report says nothing of them either.
	ack, err := json.Marshal(fabric.ReportResponse{Accepted: 1})
	if err != nil {
		t.Fatal(err)
	}
	records["fabric report response"] = ack

	for name, b := range records {
		if len(b) == 0 {
			t.Errorf("%s: empty record", name)
		}
		if m := runtimeWords.Find(b); m != nil {
			t.Errorf("%s mentions %q:\n%s", name, m, b)
		}
	}
}
