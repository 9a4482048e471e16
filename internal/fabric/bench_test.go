package fabric

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"optsync/internal/campaign"
	"optsync/internal/harness"
)

// BenchmarkCoordinatorRPC measures the coordinator's loopback RPC
// throughput on its two hot endpoints: one op is a full worker
// round-trip — one /lease checkout (1 cell) plus one /report submission
// (JSON decode, key check, store write, lease settle) — i.e. 2 RPCs.
// RPCs/sec is 2e9/(ns/op); bench/'s fabric.rpc_roundtrip_us driver takes
// the same measurement for the trajectory. The campaign is sized to b.N
// up front (seed replicates are free to expand), so every iteration
// settles a fresh cell exactly as a real fleet would.
func BenchmarkCoordinatorRPC(b *testing.B) {
	c := testCampaign()
	c.Name = "bench-rpc"
	c.Axes = []campaign.Axis{{Field: "faulty", Values: campaign.Ints(0)}}
	// One cell per op; expansion and keying are untimed setup.
	c.Seeds = b.N
	store, err := campaign.Open(b.TempDir() + "/store")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(c, store, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	client := hs.Client()

	leaseBody, _ := json.Marshal(LeaseRequest{Worker: "bench", Max: 1})
	canned := harness.Result{Spec: c.Base, MaxSkew: 1e-3}
	post := func(path string, body []byte, out any) {
		resp, err := client.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: %s", path, resp.Status)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var lease LeaseResponse
		post("/lease", leaseBody, &lease)
		if len(lease.Cells) != 1 {
			b.Fatalf("op %d: leased %d cells", i, len(lease.Cells))
		}
		cell := lease.Cells[0]
		res := canned
		res.Spec = cell.Spec
		body, err := json.Marshal(ReportRequest{Worker: "bench",
			Cells: []CellReport{{Index: cell.Index, Key: cell.Key, Result: res}}})
		if err != nil {
			b.Fatal(err)
		}
		var ack ReportResponse
		post("/report", body, &ack)
		if ack.Accepted != 1 {
			b.Fatalf("op %d: ack %+v", i, ack)
		}
	}
	b.StopTimer()
	if done := srv.table.doneCount(); done != b.N {
		b.Fatalf("settled %d cells, want %d", done, b.N)
	}
}
