package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"optsync/internal/harness"
)

// abandon drops a store the way a kill does, keeping only the test
// process's descriptor table in order.
func abandon(s *Store) {
	for _, seg := range s.unsealed {
		seg.f.Close()
	}
}

// FuzzStoreOpen hands Open a store whose three parsed files are the
// fuzzer's bytes: an unsealed segment, a sealed one and the index (seeds
// under testdata/fuzz/FuzzStoreOpen). Open must not panic; it returns an
// error or a store on which every indexed key is a miss or a result whose
// document carries that key (Get checks it), on which a Put round-trips
// through a seal, a kill and two reopens, and which loses no cell that
// answered before.
func FuzzStoreOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, open, sealed, index []byte) {
		dir := t.TempDir()
		for name, data := range map[string][]byte{
			"cells/open-000001.jsonl":   open,
			"segments/seg-000001.jsonl": sealed,
			"segments/index.json":       index,
		} {
			path := filepath.Join(dir, name)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		quiet := func(string, ...any) {}
		store, err := openStore(dir, osOps, quiet)
		if err != nil {
			return
		}
		var held []string
		var indexed []string
		for key := range store.idx {
			indexed = append(indexed, key) // Get may drop a damaged one
		}
		for _, key := range indexed {
			_, ok, err := store.Get(key)
			if err != nil {
				t.Fatalf("Get(%s): %v", key, err)
			}
			if ok {
				held = append(held, key)
			}
		}
		fresh := []string{fmt.Sprintf("%064x", 0xf00d), fmt.Sprintf("%064x", 0xfeed)}
		res := harness.Result{PulseCount: 7}
		if err := store.Put(fresh[0], res); err != nil {
			t.Fatal(err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		second, err := openStore(dir, osOps, quiet)
		if err != nil {
			t.Fatalf("reopen after Close: %v", err)
		}
		if err := second.Put(fresh[1], res); err != nil {
			t.Fatal(err)
		}
		abandon(second)
		third, err := openStore(dir, osOps, quiet)
		if err != nil {
			t.Fatalf("reopen after a kill: %v", err)
		}
		defer abandon(third)
		for _, key := range append(held, fresh...) {
			if _, ok, err := third.Get(key); err != nil || !ok {
				t.Fatalf("cell %s lost across seal, kill and reopen: ok=%v err=%v", key, ok, err)
			}
		}
	})
}
