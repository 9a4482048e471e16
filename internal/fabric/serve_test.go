package fabric

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"optsync/internal/campaign"
)

// startServe runs Serve in a goroutine and returns the bound address
// plus a channel carrying its outcome.
type serveOut struct {
	report *campaign.Report
	err    error
}

func startServe(t *testing.T, ctx context.Context, store *campaign.Store, opts ServeOptions) (string, <-chan serveOut) {
	t.Helper()
	ready := make(chan string, 1)
	opts.Ready = func(addr string) { ready <- addr }
	if opts.Linger == 0 {
		opts.Linger = 50 * time.Millisecond
	}
	out := make(chan serveOut, 1)
	go func() {
		report, err := Serve(ctx, testCampaign(), store, opts)
		out <- serveOut{report, err}
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, out
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never bound")
		return "", nil
	}
}

// TestServeFleetEndToEnd: Serve + two RunWorker loops over a real TCP
// listener complete the campaign; the returned report's groups match
// the single-process reference, and CompactOnExit leaves a compacted
// store a plain resume run answers from.
func TestServeFleetEndToEnd(t *testing.T) {
	want := referenceGroups(t)
	dir := t.TempDir() + "/store"
	store := quietStore(t, dir)
	url, out := startServe(t, context.Background(), store, ServeOptions{
		ServerOptions: ServerOptions{LeaseBatch: 2},
		CompactOnExit: true,
	})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for wi := 0; wi < 2; wi++ {
		wi := wi
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[wi] = NewWorker(url, WorkerOptions{Name: fmt.Sprintf("w%d", wi), Batch: 2,
				PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(context.Background())
		}()
	}
	wg.Wait()
	for wi, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", wi, err)
		}
	}
	res := <-out
	if res.err != nil {
		t.Fatal(res.err)
	}
	if got := marshalGroups(t, res.report.Groups); !bytes.Equal(got, want) {
		t.Fatal("Serve report diverges from single-process groups")
	}
	if store.CompactedLen() != res.report.Total {
		t.Fatalf("CompactOnExit left %d of %d cells compacted", store.CompactedLen(), res.report.Total)
	}
	// The compacted store is a normal campaign store.
	resumed, err := campaign.Run(context.Background(), testCampaign(),
		campaign.Options{Store: quietStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Executed != 0 {
		t.Fatalf("resume after served fleet executed %d cells", resumed.Executed)
	}
}

// TestServeGracefulCancel interrupts a coordinator mid-campaign
// (SIGINT's code path: context cancellation), checks the partial report
// and that a second Serve finishes exactly the remaining cells.
func TestServeGracefulCancel(t *testing.T) {
	want := referenceGroups(t)
	dir := t.TempDir() + "/store"
	store := quietStore(t, dir)
	ctx, cancel := context.WithCancel(context.Background())
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	url, out := startServe(t, ctx, store, ServeOptions{
		ServerOptions: ServerOptions{
			LeaseBatch: 2,
			Progress: func(done, total int) {
				if done >= 4 {
					// Interrupt once a third of the campaign settled. The
					// worker stops too: on a loaded host it could otherwise
					// lease and settle every remaining cell before Serve's
					// goroutine gets to shut the listener down.
					cancel()
					wcancel()
				}
			},
		},
	})
	go NewWorker(url, WorkerOptions{Name: "w", Batch: 2,
		PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(wctx)

	res := <-out
	wcancel()
	if !errors.Is(res.err, context.Canceled) {
		t.Fatalf("interrupted Serve error = %v, want context.Canceled", res.err)
	}
	if res.report == nil || res.report.Total != 12 {
		t.Fatalf("interrupted Serve report = %+v", res.report)
	}
	settled := len(res.report.Cells)
	if settled < 4 || settled >= 12 {
		t.Fatalf("interrupted Serve settled %d cells, want a strict partial >= 4", settled)
	}

	// Re-serve over the same store: preloads the settled cells, a worker
	// finishes the rest, aggregates match the reference byte-for-byte.
	url2, out2 := startServe(t, context.Background(), quietStore(t, dir), ServeOptions{})
	if _, err := NewWorker(url2, WorkerOptions{Name: "w2", Batch: 4,
		PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond}).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res2 := <-out2
	if res2.err != nil {
		t.Fatal(res2.err)
	}
	if res2.report.CacheHits < settled {
		t.Fatalf("re-serve preloaded %d cells, want >= %d", res2.report.CacheHits, settled)
	}
	if got := marshalGroups(t, res2.report.Groups); !bytes.Equal(got, want) {
		t.Fatal("resumed serve aggregates diverge")
	}
}

// cancelOnReport cancels the given context the moment the first /report
// leaves the worker — the shutdown race the grace window exists for.
type cancelOnReport struct {
	inner  http.RoundTripper
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnReport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/report" {
		c.once.Do(c.cancel)
	}
	return c.inner.RoundTrip(req)
}

// TestWorkerReportGraceFlushesFinishedBatch: cancelling the worker's
// context during its first report must not lose the finished batch —
// the grace window lands it, and Run returns the cancellation.
func TestWorkerReportGraceFlushesFinishedBatch(t *testing.T) {
	store := quietStore(t, t.TempDir()+"/store")
	srv, err := NewServer(testCampaign(), store, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(hs.URL, WorkerOptions{Name: "graced", Batch: 3,
		PollInterval: 2 * time.Millisecond, BackoffBase: time.Millisecond,
		HTTPClient: &http.Client{Transport: &cancelOnReport{inner: http.DefaultTransport, cancel: cancel}},
	})
	stats, err := w.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled after the grace flush", err)
	}
	if stats.Executed != 3 {
		t.Fatalf("worker flushed %d cells, want the full batch of 3", stats.Executed)
	}
	if done := srv.table.doneCount(); done != 3 {
		t.Fatalf("coordinator settled %d cells, want 3 — the finished batch was lost", done)
	}
}
