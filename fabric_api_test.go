package optsync

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestFabricThroughPublicAPI drives the whole distributed surface from
// the facade alone: ServeCampaign + two RunWorker loops settle a
// campaign, and the resulting aggregates are identical to a
// single-process RunCampaign of the same campaign.
func TestFabricThroughPublicAPI(t *testing.T) {
	single, err := RunCampaign(context.Background(), testCampaign(t))
	if err != nil {
		t.Fatal(err)
	}

	store, err := OpenStore(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	ready := make(chan string, 1)
	type out struct {
		report *CampaignReport
		err    error
	}
	served := make(chan out, 1)
	go func() {
		report, err := ServeCampaign(context.Background(), testCampaign(t), store, FabricServeOptions{
			Ready:         func(addr string) { ready <- addr },
			Linger:        50 * time.Millisecond,
			CompactOnExit: true,
		})
		served <- out{report, err}
	}()
	var url string
	select {
	case addr := <-ready:
		url = "http://" + addr
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never became ready")
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for wi := range errs {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[wi] = RunWorker(context.Background(), url, FabricWorkerOptions{
				Name:         fmt.Sprintf("api-w%d", wi),
				Batch:        1,
				PollInterval: 2 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	for wi, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", wi, werr)
		}
	}

	res := <-served
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.report.Total != 4 || res.report.Executed != 4 {
		t.Fatalf("fleet accounting: %s", res.report.Summary())
	}
	if !reflect.DeepEqual(res.report.Groups, single.Groups) {
		t.Fatalf("fleet aggregates diverge from single-process:\n got  %+v\n want %+v",
			res.report.Groups, single.Groups)
	}

	// CompactOnExit flushed the store into the segment tier; a plain
	// RunCampaign over the same store answers without executing.
	resumed, err := RunCampaign(context.Background(), testCampaign(t), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 || resumed.CacheHits != 4 {
		t.Fatalf("resume over served store recomputed: %s", resumed.Summary())
	}
	if !reflect.DeepEqual(resumed.Groups, single.Groups) {
		t.Fatal("resumed aggregates diverge")
	}
}

// TestCompactStoreThroughPublicAPI exercises the store compaction
// facade on a store populated by RunCampaign.
func TestCompactStoreThroughPublicAPI(t *testing.T) {
	store, err := OpenStore(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCampaign(context.Background(), testCampaign(t), WithStore(store)); err != nil {
		t.Fatal(err)
	}
	stats, err := CompactStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compacted != 4 {
		t.Fatalf("compacted %d cells, want 4", stats.Compacted)
	}
	resumed, err := RunCampaign(context.Background(), testCampaign(t), WithStore(store))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 || resumed.CacheHits != 4 {
		t.Fatalf("resume over compacted store recomputed: %s", resumed.Summary())
	}
}

// TestStoreWritePathThroughPublicAPI drives the store's exported write
// path as an embedder would: a batch is one append, a key that is not a
// SpecKey is an error (Put) or a miss (Get) and never a panic, Close
// seals, and a store reopened after Close answers from the sealed
// segment.
func TestStoreWritePathThroughPublicAPI(t *testing.T) {
	dir := t.TempDir() + "/store"
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := testSpecs(t, 3)
	keys := make([]string, len(specs))
	results := make([]Result, len(specs))
	for i, spec := range specs {
		if keys[i], err = SpecKey(spec); err != nil {
			t.Fatal(err)
		}
		if results[i], err = Run(context.Background(), spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.PutBatch(len(keys), func(i int) (string, Result) { return keys[i], results[i] }); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "a", "../../etc/passwd"} {
		if _, ok, err := store.Get(key); ok || err != nil {
			t.Errorf("Get(%q) = ok=%v err=%v, want a miss", key, ok, err)
		}
		if err := store.Put(key, results[0]); err == nil {
			t.Errorf("Put(%q) accepted", key)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	var st StoreStats = store.Stats()
	if st.Puts != 3 || st.Batches != 1 || st.Misses != 3 || st.Seals != 1 {
		t.Fatalf("store stats = %+v", st)
	}
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		got, ok, err := reopened.Get(key)
		if err != nil || !ok || got.MaxSkew != results[i].MaxSkew {
			t.Fatalf("cell %d after Close and reopen: ok=%v err=%v", i, ok, err)
		}
	}
	if st := reopened.Stats(); st.LinesRecovered != 0 || st.Hits != 3 {
		t.Fatalf("reopen of a closed store scanned or missed: %+v", st)
	}
}
