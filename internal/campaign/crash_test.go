package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optsync/internal/harness"
)

// Crash and fault tests for the one place campaign state is durable. A
// "kill" is a file-system operation that fails through the fsOps seam,
// after which the test abandons the Store value — descriptors leaked,
// nothing flushed, exactly what SIGKILL leaves — and opens the directory
// again.

var errInjected = errors.New("injected fault")

// faultFile fails the operations of one segment descriptor that its
// switchboard says to. A failing Write first lands half of its bytes, as
// a full disk or a kill would.
type faultFile struct {
	segFile
	ft *faults
}

func (f faultFile) Write(p []byte) (int, error) {
	if f.ft.failWrite {
		n, _ := f.segFile.Write(p[:len(p)/2])
		return n, errInjected
	}
	return f.segFile.Write(p)
}

func (f faultFile) Truncate(size int64) error {
	if f.ft.failTruncate {
		return errInjected
	}
	return f.segFile.Truncate(size)
}

func (f faultFile) Sync() error {
	if f.ft.failSync {
		return errInjected
	}
	return f.segFile.Sync()
}

// faults is a switchboard over osOps.
type faults struct {
	failWrite, failTruncate, failSync bool
	// failRename fails a rename whose destination's base name has this
	// prefix ("" none): "seg-" is the seal, "index.json" the publish.
	failRename string
}

func (ft *faults) ops() fsOps {
	return fsOps{
		open: func(path string, flag int) (segFile, error) {
			f, err := osOps.open(path, flag)
			if err != nil {
				return nil, err
			}
			return faultFile{f, ft}, nil
		},
		rename: func(oldpath, newpath string) error {
			if ft.failRename != "" && strings.HasPrefix(filepath.Base(newpath), ft.failRename) {
				return errInjected
			}
			return os.Rename(oldpath, newpath)
		},
	}
}

// wantHits requires every key to answer with its result.
func wantHits(t *testing.T, what string, store *Store, keys []string, results []harness.Result) {
	t.Helper()
	for i, key := range keys {
		got, ok, err := store.Get(key)
		if err != nil || !ok || got.MaxSkew != results[i].MaxSkew || got.TotalMsgs != results[i].TotalMsgs {
			t.Fatalf("%s: cell %d = ok=%v err=%v, want its result back", what, i, ok, err)
		}
	}
}

// TestOpenCutsTornTailAtEveryOffset kills a writer at every byte of its
// last line: Open keeps every earlier cell, cuts the partial line off with
// one warning, and the next Put starts on a line boundary.
func TestOpenCutsTornTailAtEveryOffset(t *testing.T) {
	src, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	keys, results := storeFixture(t, src, 3)
	whole, err := os.ReadFile(src.segmentPath("open-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lastLine := strings.LastIndexByte(string(whole[:len(whole)-1]), '\n') + 1
	dir := t.TempDir()
	segment := filepath.Join(dir, "cells", "open-000001.jsonl")
	for cut := lastLine; cut < len(whole); cut++ {
		if err := os.MkdirAll(filepath.Dir(segment), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segment, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		store, warnings := openWarned(t, dir, osOps)
		st := store.Stats()
		wantTorn := 1
		if cut == lastLine {
			wantTorn = 0 // killed between two writes: nothing is torn
		}
		if len(*warnings) != wantTorn || st.TornTails != wantTorn || st.LinesRecovered != 2 {
			t.Fatalf("cut at %d: %d warnings %q, stats %+v", cut, len(*warnings), *warnings, st)
		}
		if info, err := os.Stat(segment); err != nil || info.Size() != int64(lastLine) {
			t.Fatalf("cut at %d: segment not cut back to the line boundary %d: %v", cut, lastLine, info.Size())
		}
		if _, ok, err := store.Get(keys[2]); ok || err != nil {
			t.Fatalf("cut at %d: the torn cell answers: ok=%v err=%v", cut, ok, err)
		}
		if err := store.Put(keys[2], results[2]); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(segment); err != nil || string(got) != string(whole) {
			t.Fatalf("cut at %d: re-run did not restore the segment byte for byte (%v)", cut, err)
		}
		// Decoding every cell at every offset is the slow part; the
		// index is checked above at each, the documents at a sample.
		if cut%97 == 0 || cut == len(whole)-1 {
			wantHits(t, fmt.Sprintf("cut at %d", cut), store, keys, results)
			again, warnings := openWarned(t, dir, osOps)
			wantHits(t, fmt.Sprintf("cut at %d, reopened", cut), again, keys, results)
			if len(*warnings) != 0 {
				t.Fatalf("cut at %d: reopen after the heal warns: %q", cut, *warnings)
			}
		}
		if err := os.RemoveAll(filepath.Join(dir, "cells")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealCrashWindows kills a seal in each of its windows. Nothing a Put
// had accepted may be lost at reopen, nothing may be re-run, and the
// store must seal cleanly afterwards.
func TestSealCrashWindows(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fault faults
		// tornTemp leaves half an index behind under a temp name, the
		// artifact of a kill inside the publish's write.
		tornTemp bool // the next publish must replace it
		// unsealed is where the second batch of cells must be found by
		// the reopen: still under cells/, or in a segment the index on
		// disk does not cover.
		unsealed bool
	}{
		{name: "fsync fails", fault: faults{failSync: true}, unsealed: true},
		{name: "after fsync, before rename", fault: faults{failRename: "seg-"}, unsealed: true},
		{name: "after rename, before index publish", fault: faults{failRename: "index.json"}},
		{name: "mid-index-write", fault: faults{failRename: "index.json"}, tornTemp: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir() + "/store"
			ft := &faults{}
			store, _ := openWarned(t, dir, ft.ops())
			storeFixture(t, store, 2)
			if _, err := store.Compact(); err != nil { // a sound index to start from
				t.Fatal(err)
			}
			more, moreResults := storeFixture(t, store, 5) // seeds 1-5: three fresh cells
			*ft = tc.fault
			if _, err := store.Compact(); !errors.Is(err, errInjected) {
				t.Fatalf("faulted seal returned %v", err)
			}
			// The process that saw the seal fail still serves everything...
			wantHits(t, "after the failed seal", store, more, moreResults)
			if tc.tornTemp {
				blob, err := os.ReadFile(filepath.Join(dir, "segments", "index.json"))
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "segments", ".index.json.tmp"), blob[:len(blob)/2], 0o600); err != nil {
					t.Fatal(err)
				}
			}
			// ...and so does the one that finds its files after a kill.
			after, warnings := openWarned(t, dir, osOps)
			wantHits(t, "reopened", after, more, moreResults)
			st := after.Stats()
			if st.LinesRecovered != 3 || st.Misses != 0 || st.TornTails != 0 || len(*warnings) != 0 {
				t.Fatalf("reopen: stats %+v, warnings %q", st, *warnings)
			}
			left, _ := filepath.Glob(filepath.Join(dir, "cells", "open-*.jsonl"))
			if tc.unsealed != (len(left) == 1) {
				t.Fatalf("files under cells/ after the kill: %v", left)
			}
			stats, err := after.Compact()
			wantSealed := 0
			if tc.unsealed {
				wantSealed = 3
			}
			if err != nil || stats.Compacted != wantSealed || after.CompactedLen() != 5 {
				t.Fatalf("seal after recovery = %+v, %v; %d sealed cells", stats, err, after.CompactedLen())
			}
			final, warnings := openWarned(t, dir, osOps)
			wantHits(t, "after recovery and seal", final, more, moreResults)
			if fst := final.Stats(); fst.LinesRecovered != 0 || len(*warnings) != 0 {
				t.Fatalf("a recovered, sealed store still scans or warns: %+v %q", fst, *warnings)
			}
			if _, err := os.Stat(filepath.Join(dir, "segments", ".index.json.tmp")); err == nil {
				t.Fatal("the recovery's own publish did not consume the temp file")
			}
		})
	}
}

// TestFailedSealRetries: a seal that fails before its rename leaves the
// running store exactly as it was — every cell still answers, later Puts
// land behind the segments it put back — and sealing again, once the
// fault clears, covers all of it.
func TestFailedSealRetries(t *testing.T) {
	for _, fault := range []faults{{failSync: true}, {failRename: "seg-"}} {
		ft := &faults{}
		store, _ := openWarned(t, t.TempDir()+"/store", ft.ops())
		keys, results := storeFixture(t, store, 3)
		*ft = fault
		if _, err := store.Compact(); !errors.Is(err, errInjected) {
			t.Fatalf("%+v: faulted seal returned %v", fault, err)
		}
		wantHits(t, "after the failed seal", store, keys, results)
		late := fmt.Sprintf("%064x", 1)
		if err := store.Put(late, results[0]); err != nil {
			t.Fatal(err)
		}
		*ft = faults{}
		stats, err := store.Compact()
		if err != nil || stats.Compacted != 4 || stats.Segment != "seg-000001.jsonl" {
			t.Fatalf("%+v: retried seal = %+v, %v", fault, stats, err)
		}
		again, warnings := openWarned(t, store.Dir(), osOps)
		wantHits(t, "reopened", again, append(keys, late), append(results, results[0]))
		if st := again.Stats(); st.LinesRecovered != 0 || len(*warnings) != 0 {
			t.Fatalf("%+v: reopen after the retry scans or warns: %+v %q", fault, st, *warnings)
		}
	}
}

// TestFailedWriteIsCutOff: a write that fails half way is truncated off
// the segment, the batch is refused whole, and the store carries on; if
// the truncate fails too, the store refuses every later write with that
// first error and the next Open cuts the tail instead.
func TestFailedWriteIsCutOff(t *testing.T) {
	dir := t.TempDir() + "/store"
	ft := &faults{}
	store, _ := openWarned(t, dir, ft.ops())
	keys, results := storeFixture(t, store, 2)
	extra := make([]string, 3)
	for i := range extra {
		extra[i] = fmt.Sprintf("%064x", i+1)
	}
	putExtra := func() error {
		return store.PutBatch(len(extra), func(i int) (string, harness.Result) { return extra[i], results[0] })
	}
	before, err := os.Stat(store.segmentPath("open-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	ft.failWrite = true
	if err := putExtra(); !errors.Is(err, errInjected) {
		t.Fatalf("failed write returned %v", err)
	}
	if info, _ := os.Stat(store.segmentPath("open-000001.jsonl")); info.Size() != before.Size() {
		t.Fatalf("partial write left behind: %d bytes, want %d", info.Size(), before.Size())
	}
	if _, ok, _ := store.Get(extra[0]); ok {
		t.Fatal("a cell of the refused batch answers")
	}
	ft.failWrite = false
	if err := putExtra(); err != nil {
		t.Fatalf("store did not carry on after a cut-off write: %v", err)
	}
	wantHits(t, "after the retry", store, append(keys, extra...), append(results, results[0], results[0], results[0]))

	// Now the truncate fails as well.
	ft.failWrite, ft.failTruncate = true, true
	last := fmt.Sprintf("%064x", 99)
	first := store.Put(last, results[0])
	if !errors.Is(first, errInjected) {
		t.Fatalf("failed write returned %v", first)
	}
	*ft = faults{}
	if err := store.Put(last, results[0]); err == nil || err.Error() != first.Error() {
		t.Fatalf("store accepts writes over a tail it could not cut: %v", err)
	}
	wantHits(t, "reads from a store that refuses writes", store, keys, results)
	after, warnings := openWarned(t, dir, osOps)
	if st := after.Stats(); st.TornTails != 1 || st.LinesRecovered != 5 || len(*warnings) != 1 {
		t.Fatalf("reopen over the uncut tail: %+v %q", st, *warnings)
	}
	wantHits(t, "reopened", after, append(keys, extra...), append(results, results[0], results[0], results[0]))
}

// TestIndexEntriesAreValidated: index.json is bytes on disk. An entry
// that does not lie inside an existing, well-named segment file is dropped
// with a warning — it used to size a make() (negative: panic; huge: OOM)
// or name a path — and its cell is a miss that re-runs.
func TestIndexEntriesAreValidated(t *testing.T) {
	dir := t.TempDir() + "/store"
	store, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, results := storeFixture(t, store, 1)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	good := store.idx[keys[0]]
	bad := []segRef{
		{Segment: good.Segment, Offset: 0, Length: -5},
		{Segment: good.Segment, Offset: 0, Length: 0},
		{Segment: good.Segment, Offset: 0, Length: 1 << 40},
		{Segment: good.Segment, Offset: -1, Length: 10},
		{Segment: good.Segment, Offset: good.Length - 1, Length: 2},
		{Segment: good.Segment, Offset: math.MaxInt64 - 1, Length: 10},
		{Segment: good.Segment, Offset: 1, Length: math.MaxInt64},
		{Segment: "../meta.json", Offset: 0, Length: 5},
		{Segment: "../cells/../meta.json", Offset: 0, Length: 5},
		{Segment: "open-000001.jsonl", Offset: 0, Length: 5},
		{Segment: "seg-000009.jsonl", Offset: 0, Length: 5},
		{Segment: "", Offset: 0, Length: 5},
	}
	idx := indexFile{Version: indexVersion, LastSeq: 1, Entries: map[string]segRef{keys[0]: good, "a": good}}
	badKeys := make([]string, len(bad))
	for i, ref := range bad {
		badKeys[i] = fmt.Sprintf("%064x", i+1)
		idx.Entries[badKeys[i]] = ref
	}
	blob, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "segments", "index.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	again, warnings := openWarned(t, dir, osOps)
	if len(*warnings) != 1 || !strings.Contains((*warnings)[0], fmt.Sprintf("dropped %d index entries", len(bad)+1)) {
		t.Fatalf("warnings = %q", *warnings)
	}
	for i, key := range append(badKeys, "a") {
		if _, ok, err := again.Get(key); ok || err != nil {
			t.Fatalf("bad entry %d answers: ok=%v err=%v", i, ok, err)
		}
	}
	wantHits(t, "the sound entry", again, keys, results)
	// A bad last_seq cannot hide a segment or run the numbering away.
	for _, lastSeq := range []int{-7, math.MaxInt64} {
		idx.LastSeq = lastSeq
		blob, _ := json.Marshal(idx)
		if err := os.WriteFile(filepath.Join(dir, "segments", "index.json"), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := openWarned(t, dir, osOps)
		wantHits(t, fmt.Sprintf("last_seq %d", lastSeq), st, keys, results)
		if err := st.Put(badKeys[0], results[0]); err != nil {
			t.Fatal(err)
		}
		if stats, err := st.Compact(); err != nil || stats.Segment != "seg-000002.jsonl" {
			t.Fatalf("last_seq %d: next seal = %+v, %v", lastSeq, stats, err)
		}
		if err := os.Remove(filepath.Join(dir, "segments", "seg-000002.jsonl")); err != nil {
			t.Fatal(err)
		}
	}
}

// writeV2Cell is the version 2 store's Put, kept here as the fixture
// writer: one document per cell under cells/<key[:2]>/<key>.json.
func writeV2Cell(t *testing.T, dir, key string, doc []byte) {
	t.Helper()
	path := filepath.Join(dir, "cells", key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestV2StoreUpgradesInPlace: a version 2 store — loose documents plus a
// compacted segment — opens as version 3 with every cell a hit, nothing
// left of the loose tier, and nothing to upgrade the second time.
func TestV2StoreUpgradesInPlace(t *testing.T) {
	dir := t.TempDir()
	var keys []string
	var results []harness.Result
	var docs [][]byte
	for seed := int64(1); seed <= 5; seed++ {
		spec := testSpec(seed)
		key, err := harness.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, spec)
		doc, err := json.Marshal(cellFile{Version: 2, Key: key, Result: res})
		if err != nil {
			t.Fatal(err)
		}
		keys, results, docs = append(keys, key), append(results, res), append(docs, append(doc, '\n'))
	}
	// Cells 0-1 compacted, 2-4 loose, 1 also loose (a duplicate report
	// after the compaction), and one torn loose document.
	idx := indexFile{Version: indexVersion, LastSeq: 1, Entries: map[string]segRef{}}
	var segment []byte
	for i := 0; i < 2; i++ {
		idx.Entries[keys[i]] = segRef{Segment: "seg-000001.jsonl", Offset: int64(len(segment)), Length: int64(len(docs[i]))}
		segment = append(segment, docs[i]...)
	}
	blob, err := json.Marshal(idx)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"meta.json":                 []byte("{\"version\":2}\n"),
		"segments/seg-000001.jsonl": segment,
		"segments/index.json":       blob,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 5; i++ {
		writeV2Cell(t, dir, keys[i], docs[i])
	}
	torn := fmt.Sprintf("%064x", 7)
	writeV2Cell(t, dir, torn, docs[0][:40])

	store, warnings := openWarned(t, dir, osOps)
	if len(*warnings) != 1 || !strings.Contains((*warnings)[0], torn) {
		t.Fatalf("upgrade warnings = %q, want one for the torn document", *warnings)
	}
	wantHits(t, "upgraded", store, keys, results)
	if _, ok, _ := store.Get(torn); ok {
		t.Fatal("torn v2 document answers")
	}
	if st := store.Stats(); st.Puts != 3 || st.DuplicatePuts != 1 || st.Seals != 1 || store.CompactedLen() != 5 {
		t.Fatalf("upgrade stats = %+v, %d sealed", st, store.CompactedLen())
	}
	left, _ := filepath.Glob(filepath.Join(dir, "cells", "*"))
	if len(left) != 0 {
		t.Fatalf("upgrade left %v under cells/", left)
	}
	if meta, _ := os.ReadFile(filepath.Join(dir, "meta.json")); string(meta) != "{\"version\":3}\n" {
		t.Fatalf("meta.json after upgrade = %q", meta)
	}
	again, warnings := openWarned(t, dir, osOps)
	wantHits(t, "reopened as v3", again, keys, results)
	if st := again.Stats(); st.Puts != 0 || st.LinesRecovered != 0 || len(*warnings) != 0 {
		t.Fatalf("second open still upgrades or scans: %+v %q", st, *warnings)
	}
}

// TestStoreStats pins each counter to the event it names.
func TestStoreStats(t *testing.T) {
	dir := t.TempDir() + "/store"
	store, _ := openWarned(t, dir, osOps)
	res := mustRun(t, testSpec(1))
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x", i+1)
	}
	put := func(keys []string) {
		t.Helper()
		if err := store.PutBatch(len(keys), func(i int) (string, harness.Result) { return keys[i], res }); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range keys {
		if _, ok, _ := store.Get(key); ok {
			t.Fatal("empty store answers")
		}
	}
	put(keys[:4])
	put(keys[2:]) // two duplicates, two fresh
	put(keys[:2]) // all duplicates: no write at all
	wantHits(t, "unsealed", store, keys, []harness.Result{res, res, res, res, res, res})
	if _, err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	wantHits(t, "sealed", store, keys[:3], []harness.Result{res, res, res})
	info, err := os.Stat(filepath.Join(dir, "segments", "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Puts: 6, DuplicatePuts: 4, Batches: 2, BytesAppended: info.Size(), Hits: 9, Misses: 6, Seals: 1}
	if got := store.Stats(); got != want {
		t.Fatalf("stats\n got  %+v\n want %+v", got, want)
	}
	if err := store.Close(); err != nil { // nothing unsealed: not a seal
		t.Fatal(err)
	}
	if err := store.Put(fmt.Sprintf("%064x", 9), res); !errors.Is(err, errClosed) {
		t.Fatalf("Put after Close = %v", err)
	}
	wantHits(t, "closed", store, keys[:1], []harness.Result{res})
	if got := store.Stats(); got.Seals != 1 || got.Hits != 10 {
		t.Fatalf("stats after Close = %+v", got)
	}
}
