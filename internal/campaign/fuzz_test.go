package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// FuzzCampaignCells expands a campaign of two fuzzer-chosen axes over
// testSpec's base: a field name and comma-separated values each, at most
// eight values an axis, so the grid stays within 64 cells. The values
// reach every axis parser, ParsePartition through "partitions" among
// them (seeds under testdata/fuzz/FuzzCampaignCells). Cells must return
// an error or cells without panicking, and every cell's Key must be the
// SpecKey of its Spec.
//
//	go test -run xxx -fuzz FuzzCampaignCells -fuzztime 10s -fuzzminimizetime 1s ./internal/campaign
func FuzzCampaignCells(f *testing.F) {
	f.Fuzz(func(t *testing.T, field1, values1, field2, values2 string) {
		axis := func(field, values string) Axis {
			v := strings.Split(values, ",")
			return Axis{Field: field, Values: v[:min(len(v), 8)]}
		}
		c := Campaign{Name: "fuzz", Base: testSpec(1), Axes: []Axis{axis(field1, values1), axis(field2, values2)}}
		cells, err := c.Cells()
		if err != nil {
			return
		}
		if len(cells) == 0 || len(cells) > 64 {
			t.Fatalf("%d cells from a grid of %d", len(cells), c.gridSize())
		}
		for _, cell := range cells {
			key, err := harness.SpecKey(cell.Spec)
			if err != nil || key != cell.Key {
				t.Fatalf("cell %d (%v): Key %s, SpecKey gives %s, %v", cell.Index, cell.Values, cell.Key, key, err)
			}
		}
	})
}
