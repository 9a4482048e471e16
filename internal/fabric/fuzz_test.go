package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"

	"optsync/internal/campaign"
	"optsync/internal/harness"
)

// FuzzFabricBodies posts the fuzzer's bytes, twice, to /lease or /report
// of a coordinator over testCampaign (seeds under
// testdata/fuzz/FuzzFabricBodies). No body may panic the server or draw
// a 5xx, and after every one /progress must still account for each cell
// once: Total = Done + Leased + Pending. A fresh store and coordinator
// per exec keep every failing input reproducible on its own.
func FuzzFabricBodies(f *testing.F) {
	quiet := func(string, ...any) {}
	f.Fuzz(func(t *testing.T, report bool, body []byte) {
		store, err := campaign.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		store.SetWarn(quiet)
		defer store.Close()
		srv, err := NewServer(testCampaign(), store, ServerOptions{Warn: quiet})
		if err != nil {
			t.Fatal(err)
		}
		path := "/lease"
		if report {
			path = "/report"
		}
		serve := func(r *http.Request) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, r)
			if rec.Code >= 500 {
				t.Fatalf("%s %s = %d: %s", r.Method, r.URL.Path, rec.Code, rec.Body)
			}
			return rec
		}
		for range 2 {
			serve(httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			var p Progress
			if err := json.Unmarshal(serve(httptest.NewRequest(http.MethodGet, "/progress", nil)).Body.Bytes(), &p); err != nil {
				t.Fatal(err)
			}
			if p.Total != srv.Cells() || p.Total != p.Done+p.Leased+p.Pending {
				t.Fatalf("after %s %q: progress %+v", path, body, p)
			}
		}
	})
}

// TestReportForAnotherSpecIsRejected replays FuzzFabricBodies' valid-report
// seed: cell 0's index and key over a Result with an empty Spec. A result
// settles only the cell its spec keys to, so the coordinator rejects the
// report, settles nothing and stores nothing. The honest report of the same
// cell, the result of running its spec, is then accepted and stored.
func TestReportForAnotherSpecIsRejected(t *testing.T) {
	seed, err := os.ReadFile("testdata/fuzz/FuzzFabricBodies/valid-report")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(seed)), "\n")
	body, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := campaign.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var warned []string
	srv, err := NewServer(testCampaign(), store, ServerOptions{Warn: func(format string, args ...any) {
		warned = append(warned, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	report := func(body []byte) (ReportResponse, Progress) {
		t.Helper()
		var resp ReportResponse
		var p Progress
		for _, call := range []struct {
			req *http.Request
			out any
		}{
			{httptest.NewRequest(http.MethodPost, "/report", bytes.NewReader(body)), &resp},
			{httptest.NewRequest(http.MethodGet, "/progress", nil), &p},
		} {
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, call.req)
			if err := json.Unmarshal(rec.Body.Bytes(), call.out); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("%s %s = %d (%v): %s", call.req.Method, call.req.URL.Path, rec.Code, err, rec.Body)
			}
		}
		return resp, p
	}
	resp, p := report([]byte(body))
	if resp.Rejected != 1 || resp.Accepted != 0 || p.Done != 0 || p.Store.Puts != 0 || len(warned) != 1 {
		t.Fatalf("a result for another spec: %+v, progress %+v, warnings %q", resp, p, warned)
	}
	cells, err := testCampaign().Cells()
	if err != nil {
		t.Fatal(err)
	}
	res, err := harness.RunContext(context.Background(), cells[0].Spec)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := json.Marshal(ReportRequest{Worker: "w", Cells: []CellReport{{Index: 0, Key: cells[0].Key, Result: res}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, p = report(honest); resp.Accepted != 1 || resp.Rejected != 0 || p.Done != 1 || p.Store.Puts != 1 {
		t.Fatalf("the honest report: %+v, progress %+v", resp, p)
	}
}
