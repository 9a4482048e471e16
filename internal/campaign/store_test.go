package campaign

import (
	"context"
	"fmt"
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

// TestStoreCorruptCellIsMissWithWarning is the regression test for the
// truncated-cell robustness fix: a torn or corrupt cell file must not
// take the whole campaign down — it is logged, treated as missing, and
// the re-run overwrites the damage.
func TestStoreCorruptCellIsMissWithWarning(t *testing.T) {
	store, err := Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	store.SetWarn(func(format string, args ...any) {
		warnings = append(warnings, fmt.Sprintf(format, args...))
	})
	spec := testSpec(1)
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, harness.Result{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(store.Dir(), "cells", key[:2], key+".json")
	// Deliberately truncate the finished cell mid-document, the exact
	// artifact a crashed copy or torn filesystem leaves behind.
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, whole[:len(whole)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Get(key); err != nil || ok {
		t.Fatalf("truncated cell: Get = ok=%v err=%v, want miss without error", ok, err)
	}
	if len(warnings) == 0 || !strings.Contains(warnings[0], "corrupt cell") {
		t.Fatalf("no corruption warning logged: %q", warnings)
	}
	// Re-running the cell heals the store in place.
	res := mustRun(t, spec)
	if err := store.Put(key, res); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := store.Get(key); err != nil || !ok || got.MaxSkew != res.MaxSkew {
		t.Fatalf("healed cell unreadable: ok=%v err=%v", ok, err)
	}
}

// TestStoreDirCreationIsNormalized pins the ensureStoreDir contract:
// parent directories are created, and every directory and published
// file carries the one consistent store mode.
func TestStoreDirCreationIsNormalized(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deep", "nested", "store")
	store, err := Open(dir) // parents "deep/nested" must be created too
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(1)
	key, err := harness.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(key, harness.Result{Spec: spec}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"", "cells", "segments", filepath.Join("cells", key[:2])} {
		info, err := os.Stat(filepath.Join(dir, sub))
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Mode().Perm(); got != 0o755 {
			t.Fatalf("dir %q mode = %o, want 755", sub, got)
		}
	}
	for _, file := range []string{"meta.json", filepath.Join("cells", key[:2], key+".json")} {
		info, err := os.Stat(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		if got := info.Mode().Perm(); got != 0o644 {
			t.Fatalf("file %q mode = %o, want 644", file, got)
		}
	}
}

func TestStoreEmptyDirIsError(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty store dir accepted")
	}
}
