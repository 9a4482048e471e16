package campaign

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/harness"
)

// mustRun executes a known-good spec for store fixtures.
func mustRun(t *testing.T, spec harness.Spec) harness.Result {
	t.Helper()
	res, err := harness.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func testSpec(seed int64) harness.Spec {
	p := bounds.Params{
		N: 5, F: 1, Variant: bounds.Auth,
		Rho:  clock.Rho(1e-4),
		DMin: 0.002, DMax: 0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	return harness.Spec{
		Algo: harness.AlgoAuth, Params: p,
		FaultyCount: 1, Attack: harness.AttackSilent,
		Horizon: 4, Seed: seed,
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := store.Get(key); err != nil || ok {
		t.Fatalf("Get on empty store = ok=%v err=%v", ok, err)
	}

	res := mustRun(t, spec)
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after Put = ok=%v err=%v", ok, err)
	}
	if got.MaxSkew != res.MaxSkew || got.TotalMsgs != res.TotalMsgs ||
		got.PulseCount != res.PulseCount || got.EnvHi != res.EnvHi {
		t.Fatalf("round trip drifted:\n got  %+v\n want %+v", got, res)
	}
	if n, err := store.Len(); err != nil || n != 1 {
		t.Fatalf("Len = %d, %v", n, err)
	}

	// Reopening sees the same contents.
	store2, err := Open(store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store2.Get(key); err != nil || !ok {
		t.Fatalf("reopened Get = ok=%v err=%v", ok, err)
	}
}

func TestStoreDoesNotPersistSeries(t *testing.T) {
	store, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	spec.KeepSeries = true
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, spec)
	if len(res.Series) == 0 {
		t.Fatal("run kept no series")
	}
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	got, _, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 0 || len(got.Pulses) != 0 {
		t.Fatal("store persisted series/pulses")
	}
}

func TestStoreRefusesForeignVersion(t *testing.T) {
	dir := t.TempDir() + "/store"
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte(`{"version":999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("foreign version accepted: %v", err)
	}
}

// TestOpenRefusesOlderStore: a store settled before the generator swap
// (version 1) holds results this binary cannot reproduce; Open must say
// so and name the remedy instead of serving them.
func TestOpenRefusesOlderStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), []byte("{\"version\":1}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil {
		t.Fatal("v1 store opened")
	}
	for _, want := range []string{"version 1", "different random generator", "fresh store"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// openWarned opens a store whose warnings, Open's included, are collected.
func openWarned(t *testing.T, dir string, ops fsOps) (*Store, *[]string) {
	t.Helper()
	warnings := new([]string)
	store, err := openStore(dir, ops, func(format string, args ...any) {
		*warnings = append(*warnings, fmt.Sprintf(format, args...))
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, warnings
}

// damageLine overwrites the back half of key's line, inside whichever
// segment file holds it, leaving the file's size and every other line
// alone — bit rot, or a torn copy.
func damageLine(t *testing.T, store *Store, key string) {
	t.Helper()
	store.mu.Lock()
	ref, ok := store.idx[key]
	store.mu.Unlock()
	if !ok {
		t.Fatalf("cell %.8s is not indexed", key)
	}
	f, err := os.OpenFile(store.segmentPath(ref.Segment), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	junk := []byte(strings.Repeat("#", int(ref.Length/2)))
	if _, err := f.WriteAt(junk, ref.Offset+ref.Length/2); err != nil {
		t.Fatal(err)
	}
}

// storeFiles lists the regular files under the store, relative to it.
func storeFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			rel, _ := filepath.Rel(dir, path)
			out = append(out, filepath.ToSlash(rel))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreCorruptCellIsMissWithWarning is the regression test for the
// truncated-cell robustness fix: a torn or corrupt cell must not take the
// whole campaign down — it is logged, treated as missing, and the re-run
// heals the damage, in the unsealed segment and in a sealed one alike.
func TestStoreCorruptCellIsMissWithWarning(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		store, warnings := openWarned(t, t.TempDir()+"/store", osOps)
		keys, results := storeFixture(t, store, 3)
		if sealed {
			if _, err := store.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		damageLine(t, store, keys[1])
		if _, ok, err := store.Get(keys[1]); err != nil || ok {
			t.Fatalf("sealed=%v: damaged cell: Get = ok=%v err=%v, want miss without error", sealed, ok, err)
		}
		if len(*warnings) != 1 || !strings.Contains((*warnings)[0], "corrupt cell") {
			t.Fatalf("sealed=%v: want one corruption warning, got %q", sealed, *warnings)
		}
		// Its neighbours in the same file are untouched.
		for _, i := range []int{0, 2} {
			if got, ok, err := store.Get(keys[i]); err != nil || !ok || got.MaxSkew != results[i].MaxSkew {
				t.Fatalf("sealed=%v: neighbour %d lost: ok=%v err=%v", sealed, i, ok, err)
			}
		}
		// Re-running the cell heals the store, and the heal survives a
		// seal and a reopen (the damaged line is still in its file).
		if err := store.Put(keys[1], results[1]); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := store.Get(keys[1]); err != nil || !ok || got.MaxSkew != results[1].MaxSkew {
			t.Fatalf("sealed=%v: healed cell unreadable: ok=%v err=%v", sealed, ok, err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		again, warnings := openWarned(t, store.Dir(), osOps)
		for i, key := range keys {
			if got, ok, err := again.Get(key); err != nil || !ok || got.MaxSkew != results[i].MaxSkew {
				t.Fatalf("sealed=%v: cell %d after heal and reopen: ok=%v err=%v", sealed, i, ok, err)
			}
		}
		if st := store.Stats(); st.DamagedReads != 1 || len(*warnings) != 0 {
			t.Fatalf("sealed=%v: damaged reads %d, warnings on reopen %q", sealed, st.DamagedReads, *warnings)
		}
	}
}

// TestStoreDirCreationIsNormalized pins the store's creation contract:
// parent directories are created, and every directory and published
// file carries the one consistent store mode.
func TestStoreDirCreationIsNormalized(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested", "store")
	store, err := Open(dir) // parents "deep/nested" must be created too
	if err != nil {
		t.Fatal(err)
	}
	check := func(want os.FileMode, names ...string) {
		t.Helper()
		for _, name := range names {
			info, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if got := info.Mode().Perm(); got != want {
				t.Fatalf("%q mode = %o, want %o", name, got, want)
			}
		}
	}
	storeFixture(t, store, 1)
	check(0o755, "", "cells", "segments")
	check(0o644, "meta.json", "cells/open-000001.jsonl")
	if _, err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	check(0o644, "segments/seg-000001.jsonl", "segments/index.json")
	if got := storeFiles(t, dir); len(got) != 3 {
		t.Fatalf("sealed store holds %v, want meta.json, one segment and index.json", got)
	}
}

// TestStoreKeyContract: a key that is not a SpecKey — 64 lowercase hex
// digits — is a miss from Get and an error from Put and PutBatch. It
// used to be a slice-bounds panic, or a path outside the store.
func TestStoreKeyContract(t *testing.T) {
	store, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	good, err := harness.SpecKey(testSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"", "a", good[:63], good + "0", strings.ToUpper(good), "../../etc/passwd",
		strings.Repeat("g", 64), good[:32] + "/" + good[33:],
	} {
		if _, ok, err := store.Get(key); ok || err != nil {
			t.Errorf("Get(%q) = ok=%v err=%v, want a clean miss", key, ok, err)
		}
		if err := store.Put(key, harness.Result{}); err == nil || !strings.Contains(err.Error(), "not a spec key") {
			t.Errorf("Put(%q) = %v, want a key error", key, err)
		}
		// One bad key refuses the whole batch: nothing is half-written.
		keys := []string{good, key}
		err := store.PutBatch(2, func(i int) (string, harness.Result) { return keys[i], harness.Result{} })
		if err == nil {
			t.Errorf("PutBatch with key %q accepted", key)
		}
	}
	if n, _ := store.Len(); n != 0 {
		t.Fatalf("refused batches left %d cells behind", n)
	}
	if got := storeFiles(t, store.Dir()); len(got) != 1 {
		t.Fatalf("refused writes created files: %v", got)
	}
}

func TestStoreEmptyDirIsError(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty store dir accepted")
	}
}
