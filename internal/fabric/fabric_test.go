package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"optsync/internal/campaign"
	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/harness"
)

// testCampaign is the shared fixture: a (faulty x dmax) grid with seed
// replicates — 12 cells, each a sub-second simulation.
func testCampaign() campaign.Campaign {
	p := bounds.Params{
		N: 5, F: 1, Variant: bounds.Auth,
		Rho:  clock.Rho(1e-4),
		DMin: 0.002, DMax: 0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	return campaign.Campaign{
		Name: "fabric-e2e",
		Base: harness.Spec{
			Algo: harness.AlgoAuth, Params: p,
			FaultyCount: 1, Attack: harness.AttackSilent,
			Horizon: 4, Seed: 1,
		},
		Axes: []campaign.Axis{
			{Field: "faulty", Values: campaign.Ints(0, 1)},
			{Field: "dmax", Values: campaign.Floats(0.008, 0.012, 0.016)},
		},
		Seeds: 2,
	}
}

// referenceGroups runs the campaign single-process against a fresh
// store, re-runs it (the -resume path: 100% cache hits), checks the two
// agree, and returns the canonical aggregate bytes.
func referenceGroups(t *testing.T) []byte {
	t.Helper()
	store, err := campaign.Open(t.TempDir() + "/store")
	if err != nil {
		t.Fatal(err)
	}
	first, err := campaign.Run(context.Background(), testCampaign(), campaign.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := campaign.Run(context.Background(), testCampaign(), campaign.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.CacheHits != resumed.Total || resumed.Executed != 0 {
		t.Fatalf("resume pass executed %d cells, want 0", resumed.Executed)
	}
	a, b := marshalGroups(t, first.Groups), marshalGroups(t, resumed.Groups)
	if !bytes.Equal(a, b) {
		t.Fatal("single-process run and -resume rerun disagree")
	}
	return b
}

func marshalGroups(t *testing.T, groups []campaign.Group) []byte {
	t.Helper()
	blob, err := json.Marshal(groups)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// quietStore opens a store whose warnings go to the test log.
func quietStore(t *testing.T, dir string) *campaign.Store {
	t.Helper()
	store, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	store.SetWarn(func(format string, args ...any) { t.Logf(format, args...) })
	return store
}

// runFleet serves the campaign on an httptest server and runs workers
// concurrently until completion, returning the coordinator.
func runFleet(t *testing.T, srvOpts ServerOptions, workers ...WorkerOptions) *Server {
	t.Helper()
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, srvOpts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for wi, wopts := range workers {
		wi, wopts := wi, wopts
		if wopts.Name == "" {
			wopts.Name = fmt.Sprintf("w%d", wi)
		}
		wopts.PollInterval = 2 * time.Millisecond
		wopts.BackoffBase = time.Millisecond
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[wi] = NewWorker(hs.URL, wopts).Run(ctx)
		}()
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", wi, err)
		}
	}
	if !srv.Complete() {
		t.Fatal("campaign not complete after all workers exited")
	}
	select {
	case <-srv.Done():
	default:
		t.Fatal("Done channel not closed on completion")
	}
	return srv
}

// TestFleetMatchesSingleProcess is the crowning correctness test: a
// coordinator plus two workers over HTTP produce byte-identical grouped
// aggregates to the single-process `-resume` run of the same campaign.
func TestFleetMatchesSingleProcess(t *testing.T) {
	want := referenceGroups(t)
	srv := runFleet(t, ServerOptions{LeaseBatch: 3},
		WorkerOptions{Batch: 3}, WorkerOptions{Batch: 2})
	report := srv.Report()
	if report.Executed != report.Total || report.CacheHits != 0 {
		t.Fatalf("fleet executed %d of %d cells", report.Executed, report.Total)
	}
	if got := marshalGroups(t, report.Groups); !bytes.Equal(got, want) {
		t.Fatalf("fleet aggregates diverge from single-process run:\n got  %s\n want %s", got, want)
	}
}

// TestFleetResumesFromStore: a coordinator over a store with finished
// cells preloads them (the distributed analogue of -resume) and the
// fleet only executes the remainder.
func TestFleetResumesFromStore(t *testing.T) {
	want := referenceGroups(t)
	dir := t.TempDir() + "/store"
	store := quietStore(t, dir)
	cells, err := testCampaign().Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Pre-finish 5 of the 12 cells.
	for _, cell := range cells[:5] {
		res, err := harness.RunContext(context.Background(), cell.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(cell.Key, res); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := NewServer(testCampaign(), store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	stats, err := NewWorker(hs.URL, WorkerOptions{Name: "solo", Batch: 4,
		PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Executed != 7 {
		t.Fatalf("worker executed %d cells, want the 7 not preloaded", stats.Executed)
	}
	report := srv.Report()
	if report.CacheHits != 5 || report.Executed != 7 {
		t.Fatalf("report accounting = %d hits / %d executed, want 5/7", report.CacheHits, report.Executed)
	}
	if got := marshalGroups(t, report.Groups); !bytes.Equal(got, want) {
		t.Fatal("resumed fleet aggregates diverge")
	}
}

// TestWorkerCrashLeaseExpiry kills a worker mid-campaign (it leases
// cells and never reports) and checks the fleet heals through lease
// expiry with no manual intervention and no lost cells.
func TestWorkerCrashLeaseExpiry(t *testing.T) {
	want := referenceGroups(t)
	clk := newFakeClock()
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, ServerOptions{
		LeaseTTL: 30 * time.Second,
		Now:      clk.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// The doomed worker checks out a batch over the real wire protocol
	// and then crashes (we simply never report).
	var doomed LeaseResponse
	postJSON(t, hs.URL+"/lease", LeaseRequest{Worker: "doomed", Max: 5}, &doomed)
	if len(doomed.Cells) != 5 {
		t.Fatalf("doomed worker leased %d cells, want 5", len(doomed.Cells))
	}
	// Its lease has not expired: a live worker finishes everything else
	// and then spins on polls, because 5 cells are stuck leased.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type runOut struct {
		stats WorkerStats
		err   error
	}
	out := make(chan runOut, 1)
	go func() {
		stats, err := NewWorker(hs.URL, WorkerOptions{Name: "survivor", Batch: 3,
			PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(ctx)
		out <- runOut{stats, err}
	}()
	// Wait until only the crashed cells remain, then expire the lease.
	waitFor(t, 10*time.Second, func() bool {
		done, _, _ := srv.table.counts()
		return done == srv.Cells()-5
	})
	clk.Advance(31 * time.Second)
	res := <-out
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.stats.Executed != srv.Cells() {
		t.Fatalf("survivor executed %d cells, want all %d (5 via reclaim)", res.stats.Executed, srv.Cells())
	}
	if got := marshalGroups(t, srv.Report().Groups); !bytes.Equal(got, want) {
		t.Fatal("post-crash aggregates diverge")
	}
}

// TestDuplicateReportsAreSafe replays a full report batch a second time
// straight at the wire and checks nothing double-counts.
func TestDuplicateReportsAreSafe(t *testing.T) {
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	var lease LeaseResponse
	postJSON(t, hs.URL+"/lease", LeaseRequest{Worker: "w", Max: 3}, &lease)
	report := ReportRequest{Worker: "w", Cells: make([]CellReport, len(lease.Cells))}
	for i, cell := range lease.Cells {
		res, err := harness.RunContext(context.Background(), cell.Spec)
		if err != nil {
			t.Fatal(err)
		}
		report.Cells[i] = CellReport{Index: cell.Index, Key: cell.Key, Result: res}
	}
	var first, second ReportResponse
	postJSON(t, hs.URL+"/report", report, &first)
	postJSON(t, hs.URL+"/report", report, &second)
	if first.Accepted != 3 || first.Duplicates != 0 {
		t.Fatalf("first report = %+v", first)
	}
	if second.Accepted != 0 || second.Duplicates != 3 {
		t.Fatalf("duplicate report = %+v, want 3 duplicates and 0 accepted", second)
	}
	var prog Progress
	getJSON(t, hs.URL+"/progress", &prog)
	if prog.Done != 3 || prog.Executed != 3 {
		t.Fatalf("progress after duplicate = %+v, want done=3", prog)
	}
	// A key mismatch is rejected, not stored.
	bogus := ReportRequest{Worker: "w", Cells: []CellReport{{Index: 0, Key: strings.Repeat("ab", 32)}}}
	var rej ReportResponse
	postJSON(t, hs.URL+"/report", bogus, &rej)
	if rej.Rejected != 1 || rej.Accepted != 0 {
		t.Fatalf("mismatched report = %+v, want 1 rejected", rej)
	}
}

// TestFlakyTransportDuplicates runs a fleet where every worker's
// transport randomly drops /report responses after the coordinator has
// processed them — so clients retry batches the server already settled.
// Aggregates must still match the single-process run exactly.
func TestFlakyTransportDuplicates(t *testing.T) {
	want := referenceGroups(t)
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, ServerOptions{LeaseBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for wi := 0; wi < 2; wi++ {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			flaky := &http.Client{Transport: &flakyTransport{
				inner: http.DefaultTransport,
				rng:   rand.New(rand.NewSource(int64(wi + 1))),
			}}
			_, errs[wi] = NewWorker(hs.URL, WorkerOptions{
				Name: fmt.Sprintf("flaky-%d", wi), Batch: 2,
				PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond,
				HTTPClient: flaky,
			}).Run(ctx)
		}()
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", wi, err)
		}
	}
	report := srv.Report()
	if report.Total != 12 {
		t.Fatalf("total = %d", report.Total)
	}
	if got := marshalGroups(t, report.Groups); !bytes.Equal(got, want) {
		t.Fatal("flaky-transport aggregates diverge")
	}
}

// flakyTransport forwards every request but drops ~35% of /report
// responses on the floor *after* the server has handled them — the
// worst-case retry ambiguity.
type flakyTransport struct {
	mu    sync.Mutex
	inner http.RoundTripper
	rng   *rand.Rand
}

func (f *flakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(req.URL.Path, "/report") {
		f.mu.Lock()
		drop := f.rng.Float64() < 0.35
		f.mu.Unlock()
		if drop {
			resp.Body.Close()
			return nil, fmt.Errorf("flaky transport ate the response")
		}
	}
	return resp, nil
}

// TestFleetWithLiveCompaction compacts the store every few reports
// while workers keep writing, then proves a single-process resume run
// over the compacted store is 100% cache hits with identical groups.
func TestFleetWithLiveCompaction(t *testing.T) {
	want := referenceGroups(t)
	dir := t.TempDir() + "/store"
	store := quietStore(t, dir)
	srv, err := NewServer(testCampaign(), store, ServerOptions{
		LeaseBatch:   2,
		CompactEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx := context.Background()
	for wi := 0; wi < 2; wi++ {
		if _, err := NewWorker(hs.URL, WorkerOptions{Name: fmt.Sprintf("w%d", wi), Batch: 2,
			PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := marshalGroups(t, srv.Report().Groups); !bytes.Equal(got, want) {
		t.Fatal("compacting-fleet aggregates diverge")
	}
	if _, err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	if store.CompactedLen() == 0 {
		t.Fatal("compaction never ran")
	}
	// The same store now serves a fresh single-process resume run.
	store2 := quietStore(t, dir)
	resumed, err := campaign.Run(ctx, testCampaign(), campaign.Options{Store: store2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 || resumed.CacheHits != resumed.Total {
		t.Fatalf("resume over compacted fleet store executed %d cells", resumed.Executed)
	}
	if got := marshalGroups(t, resumed.Groups); !bytes.Equal(got, want) {
		t.Fatal("resume over compacted fleet store diverges")
	}
}

// TestAggregatesEndpointLive checks /aggregates mid-campaign (partial
// groups over settled cells) and at completion (canonical groups), and
// /healthz.
func TestAggregatesEndpointLive(t *testing.T) {
	want := referenceGroups(t)
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %v %v", resp.Status, err)
	}
	resp.Body.Close()

	var empty Aggregates
	getJSON(t, hs.URL+"/aggregates", &empty)
	if empty.Done != 0 || empty.Complete || len(empty.Groups) != 0 {
		t.Fatalf("empty aggregates = %+v", empty)
	}

	// Settle one lease batch by hand, then check the partial snapshot.
	var lease LeaseResponse
	postJSON(t, hs.URL+"/lease", LeaseRequest{Worker: "w", Max: 4}, &lease)
	report := ReportRequest{Worker: "w", Cells: make([]CellReport, len(lease.Cells))}
	for i, cell := range lease.Cells {
		res, err := harness.RunContext(context.Background(), cell.Spec)
		if err != nil {
			t.Fatal(err)
		}
		report.Cells[i] = CellReport{Index: cell.Index, Key: cell.Key, Result: res}
	}
	var ack ReportResponse
	postJSON(t, hs.URL+"/report", report, &ack)
	// /progress carries the store's own accounting: the preload's twelve
	// misses, and the report's four cells in one append.
	var progress Progress
	getJSON(t, hs.URL+"/progress", &progress)
	if st := progress.Store; progress.Done != 4 || st.Misses != 12 || st.Puts != 4 || st.Batches != 1 || st.BytesAppended == 0 {
		t.Fatalf("progress after one report = %+v", progress)
	}
	var partial Aggregates
	getJSON(t, hs.URL+"/aggregates", &partial)
	if partial.Done != 4 || partial.Complete || len(partial.Groups) == 0 {
		t.Fatalf("partial aggregates done=%d complete=%v groups=%d",
			partial.Done, partial.Complete, len(partial.Groups))
	}

	// Finish with a worker; the endpoint must now serve the canonical
	// groups byte-for-byte.
	if _, err := NewWorker(hs.URL, WorkerOptions{Name: "w2", Batch: 4,
		PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var final Aggregates
	getJSON(t, hs.URL+"/aggregates", &final)
	if !final.Complete {
		t.Fatal("aggregates not complete")
	}
	if got := marshalGroups(t, final.Groups); !bytes.Equal(got, want) {
		t.Fatal("completed /aggregates diverges from single-process groups")
	}
}

// TestStoreAccountingOfOneCampaign pins the store traffic of the
// benchmark's op shape: the coordinator's preload misses every cell, each
// /report is one append however many cells it carries, two resumes hit
// every cell, and one seal covers the lot and leaves three files.
func TestStoreAccountingOfOneCampaign(t *testing.T) {
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, ServerOptions{LeaseBatch: 3})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	worker, err := NewWorker(hs.URL, WorkerOptions{Name: "solo", Batch: 3,
		PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r, err := campaign.Run(context.Background(), testCampaign(), campaign.Options{Store: store}); err != nil || r.CacheHits != 12 {
			t.Fatalf("resume %d: %v, %v", i, r, err)
		}
	}
	sealed, err := srv.Compact()
	if err != nil || sealed.Compacted != 12 {
		t.Fatalf("seal = %+v, %v", sealed, err)
	}
	st := store.Stats()
	want := campaign.Stats{Puts: 12, Batches: worker.Leases, BytesAppended: st.BytesAppended, Hits: 24, Misses: 12, Seals: 1}
	if worker.Leases != 4 || st != want {
		t.Fatalf("%d leases; store stats\n got  %+v\n want %+v", worker.Leases, st, want)
	}
	var files []string
	err = filepath.WalkDir(store.Dir(), func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			files = append(files, filepath.Base(path))
		}
		return err
	})
	if err != nil || strings.Join(files, " ") != "meta.json index.json seg-000001.jsonl" {
		t.Fatalf("a finished, sealed campaign store holds %v (%v)", files, err)
	}
}

// TestStoreFailureSettlesNothing: durability before accounting. A report
// the store does not take is a 500 and counts for nothing — no cell done,
// the lease still out — so the cells come back when it expires.
func TestStoreFailureSettlesNothing(t *testing.T) {
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	var lease LeaseResponse
	postJSON(t, hs.URL+"/lease", LeaseRequest{Worker: "w", Max: 4}, &lease)
	report := ReportRequest{Worker: "w"}
	for _, cell := range lease.Cells {
		report.Cells = append(report.Cells, CellReport{Index: cell.Index, Key: cell.Key, Result: harness.Result{Spec: cell.Spec}})
	}
	if err := store.Close(); err != nil { // from here on every write is refused
		t.Fatal(err)
	}
	blob, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/report", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("report into a refusing store = %s, want 500", resp.Status)
	}
	var progress Progress
	getJSON(t, hs.URL+"/progress", &progress)
	if progress.Done != 0 || progress.Executed != 0 || progress.Leased != 4 || progress.Store.Puts != 0 {
		t.Fatalf("a refused report was counted: %+v", progress)
	}
	if len(srv.Report().Cells) != 0 {
		t.Fatal("a refused report reached the aggregates")
	}
}

func postJSON(t *testing.T, url string, req, resp any) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("POST %s = %s", url, hr.Status)
	}
	if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
}

func getJSON(t *testing.T, url string, resp any) {
	t.Helper()
	hr, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", url, hr.Status)
	}
	if err := json.NewDecoder(hr.Body).Decode(resp); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition never held")
}
