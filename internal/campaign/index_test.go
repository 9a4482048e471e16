package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"optsync/internal/harness"
)

// storeFixture runs a handful of distinct cells and Puts them.
func storeFixture(t *testing.T, store *Store, n int) ([]string, []harness.Result) {
	t.Helper()
	keys := make([]string, n)
	results := make([]harness.Result, n)
	for i := 0; i < n; i++ {
		spec := testSpec(int64(i + 1))
		key, err := harness.SpecKey(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := mustRun(t, spec)
		if err := store.Put(key, res); err != nil {
			t.Fatal(err)
		}
		keys[i], results[i] = key, res
	}
	return keys, results
}

func TestCompactRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	keys, results := storeFixture(t, store, 4)

	stats, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted != 4 || stats.Segment == "" {
		t.Fatalf("Compact stats = %+v, want 4 compacted into a segment", stats)
	}
	// Nothing is left under cells/; every cell still answers, byte-equal.
	if left, _ := filepath.Glob(filepath.Join(store.Dir(), "cells", "*")); len(left) != 0 {
		t.Fatalf("unsealed files survive the seal: %v", left)
	}
	for i, key := range keys {
		got, ok, err := store.Get(key)
		if err != nil || !ok {
			t.Fatalf("compacted Get(%s) = ok=%v err=%v", key[:8], ok, err)
		}
		if got.MaxSkew != results[i].MaxSkew || got.TotalMsgs != results[i].TotalMsgs {
			t.Fatalf("compacted cell %d drifted", i)
		}
	}
	if n, err := store.Len(); err != nil || n != 4 {
		t.Fatalf("Len after compaction = %d, %v", n, err)
	}

	// A reopened store loads the index and still serves everything.
	store2, err := Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if store2.CompactedLen() != 4 {
		t.Fatalf("reopened CompactedLen = %d", store2.CompactedLen())
	}
	for _, key := range keys {
		if _, ok, err := store2.Get(key); err != nil || !ok {
			t.Fatalf("reopened compacted Get = ok=%v err=%v", ok, err)
		}
	}
}

// TestCompactIncremental checks that repeated seals only cover fresh
// cells, and a store with sealed and unsealed cells counts and serves
// correctly.
func TestCompactIncremental(t *testing.T) {
	store, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := storeFixture(t, store, 2)
	if _, err := store.Compact(); err != nil {
		t.Fatal(err)
	}

	// Two more cells arrive after the first pass.
	spec := testSpec(100)
	key3, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key3, mustRun(t, spec)); err != nil {
		t.Fatal(err)
	}
	if n, _ := store.Len(); n != 3 {
		t.Fatalf("mixed-tier Len = %d, want 3", n)
	}
	stats, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted != 1 {
		t.Fatalf("second pass compacted %d cells, want 1", stats.Compacted)
	}
	if store.CompactedLen() != 3 {
		t.Fatalf("CompactedLen = %d, want 3", store.CompactedLen())
	}
	// A duplicate Put of a sealed key is a no-op (content-addressed).
	if err := store.Put(keys[0], harness.Result{}); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(store.Dir(), "cells", "*")); len(left) != 0 {
		t.Fatalf("duplicate Put of a sealed key opened a segment: %v", left)
	}
	if st := store.Stats(); st.DuplicatePuts != 1 || st.Puts != 3 {
		t.Fatalf("stats after a duplicate = %+v", st)
	}

	// An empty pass is a no-op.
	stats, err = store.Compact()
	if err != nil || stats.Compacted != 0 || stats.Segment != "" {
		t.Fatalf("idle Compact = %+v, %v", stats, err)
	}
}

// TestCompactConcurrentWithPut drives Put, PutBatch and Get traffic from
// eight goroutines while Compact runs repeatedly — the coordinator's
// exact write pattern — and requires every key to remain readable
// throughout and afterwards, and again after a reopen.
func TestCompactConcurrentWithPut(t *testing.T) {
	store, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, testSpec(1))
	const writers, perWriter, batch = 8, 24, 4
	var wg sync.WaitGroup
	keys := make([][]string, writers)
	for w := 0; w < writers; w++ {
		w := w
		keys[w] = make([]string, perWriter)
		for i := range keys[w] {
			// Distinct synthetic keys; the result payload is shared
			// (only store mechanics are under test here).
			keys[w][i] = fmt.Sprintf("%02x%062x", w, i)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i += batch {
				mine := keys[w][i : i+batch]
				var err error
				if w%2 == 0 {
					err = store.PutBatch(batch, func(j int) (string, harness.Result) { return mine[j], res })
				} else {
					for _, key := range mine {
						if err == nil {
							err = store.Put(key, res)
						}
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
				// Everything this writer ever stored stays readable,
				// whichever side of a seal it is on by now.
				for _, key := range keys[w][:i+batch] {
					if _, ok, err := store.Get(key); err != nil || !ok {
						t.Errorf("Get(%s) after Put = ok=%v err=%v", key[:4], ok, err)
						return
					}
				}
			}
		}()
	}
	compactDone := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := store.Compact(); err != nil {
				compactDone <- err
				return
			}
		}
		compactDone <- nil
	}()
	wg.Wait()
	if err := <-compactDone; err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	again, warnings := openWarned(t, store.Dir(), osOps)
	for _, st := range []*Store{store, again} {
		for w := range keys {
			for _, key := range keys[w] {
				if _, ok, err := st.Get(key); err != nil || !ok {
					t.Fatalf("key %s lost across concurrent seals: ok=%v err=%v", key[:4], ok, err)
				}
			}
		}
		if n, err := st.Len(); err != nil || n != writers*perWriter || st.CompactedLen() != n {
			t.Fatalf("Len = %d, %v, sealed %d; want %d", n, err, st.CompactedLen(), writers*perWriter)
		}
	}
	if len(*warnings) != 0 {
		t.Fatalf("reopen after a clean Close warned: %q", *warnings)
	}
}

// TestCompactDropsCorruptCells: a damaged line rides into the sealed
// segment untouched (a seal moves bytes, it does not parse them) but must
// not poison it: its neighbour answers, it is a warned miss that re-runs,
// and it is the only cell that does.
func TestCompactDropsCorruptCells(t *testing.T) {
	store, warnings := openWarned(t, t.TempDir()+"/store", osOps)
	keys, results := storeFixture(t, store, 2)
	damageLine(t, store, keys[0])
	stats, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted != 2 || stats.Segment != "seg-000001.jsonl" {
		t.Fatalf("Compact over a damaged line = %+v", stats)
	}
	if _, ok, _ := store.Get(keys[0]); ok || len(*warnings) != 1 {
		t.Fatalf("damaged cell answers (%v) or went unwarned: %q", ok, *warnings)
	}
	if _, ok, err := store.Get(keys[1]); err != nil || !ok {
		t.Fatalf("healthy cell lost: ok=%v err=%v", ok, err)
	}
	if store.CompactedLen() != 1 {
		t.Fatalf("damaged cell still indexed: %d sealed cells", store.CompactedLen())
	}
	if err := store.Put(keys[0], results[0]); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := store.Get(keys[0]); err != nil || !ok || got.MaxSkew != results[0].MaxSkew {
		t.Fatalf("re-run did not heal: ok=%v err=%v", ok, err)
	}
}

// TestCorruptIndexIsRecoverable: a destroyed, foreign-version or missing
// index.json is rebuilt from the sealed segments at Open — one warning,
// every cell a hit, nothing re-run — and rewritten, so the next Open is
// quiet again.
func TestCorruptIndexIsRecoverable(t *testing.T) {
	for name, damage := range map[string]func(path string) error{
		"corrupt": func(path string) error { return os.WriteFile(path, []byte("{bogus"), 0o644) },
		"foreign": func(path string) error {
			return os.WriteFile(path, []byte(`{"version":9,"last_seq":2,"entries":{}}`), 0o644)
		},
		"missing": os.Remove,
	} {
		dir := t.TempDir() + "/store"
		store, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		keys, results := storeFixture(t, store, 2)
		if _, err := store.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := store.Put(keys[0], results[0]); err != nil { // a no-op
			t.Fatal(err)
		}
		more, _ := storeFixture(t, store, 3) // seeds 1-3: one fresh cell
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		index := filepath.Join(dir, "segments", "index.json")
		want, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		if err := damage(index); err != nil {
			t.Fatal(err)
		}
		store2, warnings := openWarned(t, dir, osOps)
		wantWarnings := 1
		if name == "missing" {
			wantWarnings = 0 // what a kill before the first publish leaves
		}
		if len(*warnings) != wantWarnings {
			t.Fatalf("%s index: %d warnings, want %d: %q", name, len(*warnings), wantWarnings, *warnings)
		}
		for i, key := range more {
			if _, ok, err := store2.Get(key); err != nil || !ok {
				t.Fatalf("%s index: cell %d = ok=%v err=%v, want a hit", name, i, ok, err)
			}
		}
		if st := store2.Stats(); st.LinesRecovered != 3 || st.Misses != 0 || store2.CompactedLen() != 3 {
			t.Fatalf("%s index: stats %+v, %d sealed cells", name, st, store2.CompactedLen())
		}
		if got, err := os.ReadFile(index); err != nil || string(got) != string(want) {
			t.Fatalf("%s index: rebuilt index differs from the one it replaces:\n got  %s\n want %s (%v)", name, got, want, err)
		}
		if _, warnings := openWarned(t, dir, osOps); len(*warnings) != 0 {
			t.Fatalf("%s index: second open still warns: %q", name, *warnings)
		}
	}
}
