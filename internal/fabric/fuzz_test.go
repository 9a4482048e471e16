package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"optsync/internal/campaign"
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
