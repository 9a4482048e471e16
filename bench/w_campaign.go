package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"optsync"
)

// The campaign-fabric grid: faulty in {0..3} x dmax in {6..14 ms} x 6
// seeds = 120 cells of st-auth n=7 f=3, horizon 12.
const (
	campaignCells   = 120
	campaignWorkers = 2
)

func benchCampaign(seed int64) optsync.Campaign {
	return optsync.Campaign{
		Name: "bench",
		Base: optsync.Spec{
			Algo: optsync.AlgoAuth, Params: lanParams(7, 3, optsync.Auth),
			Attack: optsync.AttackSilent, Horizon: 12, Seed: seed,
		},
		Axes: []optsync.Axis{
			{Field: "faulty", Values: optsync.Ints(0, 1, 2, 3)},
			{Field: "dmax", Values: optsync.Floats(0.006, 0.008, 0.010, 0.012, 0.014)},
		},
		Seeds: 6,
	}
}

// campaignWorkload settles a campaign cold through the fabric, then
// resumes it from the loose store tier, compacts, and resumes it from the
// segment tier. It is the only workload where the store, the RPC layer and
// spec keying outweigh the simulation itself.
type campaignWorkload struct {
	dir  string
	seed int64
}

func (w *campaignWorkload) setup(dir string, seed int64) error {
	w.dir, w.seed = dir, seed
	cells, err := benchCampaign(seed).Cells()
	if err != nil {
		return err
	}
	if len(cells) != campaignCells {
		return fmt.Errorf("campaign expands to %d cells, want %d", len(cells), campaignCells)
	}
	return nil
}

// campaignOutcome is what one campaign op reports, stage by stage.
type campaignOutcome struct {
	fabric, loose, segment *optsync.CampaignReport
	compacted              int
	workers                []optsync.FabricWorkerStats
}

func (w *campaignWorkload) op(i int, tr *opTrace) (*opOutput, error) {
	dir := filepath.Join(w.dir, fmt.Sprintf("store-%d", i))
	o, err := runCampaignOp(dir, benchCampaign(opSeed(w.seed, i)), tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	record, err := json.Marshal(struct {
		Total  int                     `json:"total"`
		Groups []optsync.CampaignGroup `json:"groups"`
	}{o.fabric.Total, o.fabric.Groups})
	if err != nil {
		return nil, err
	}
	record = append(record, '\n')
	leases := 0
	for _, st := range o.workers {
		leases += st.Leases
	}
	tr.count("fabric.leases", float64(leases))
	return &opOutput{
		record: record,
		counts: map[string]float64{"cells": float64(o.fabric.Total)},
		finish: func(out *opOutput) error {
			defer os.RemoveAll(dir)
			size, err := dirSize(dir)
			if err != nil {
				return err
			}
			out.stored = size + int64(len(record))
			return o.check()
		},
	}, nil
}

func runCampaignOp(dir string, c optsync.Campaign, tr *opTrace) (*campaignOutcome, error) {
	ctx := context.Background()
	o := &campaignOutcome{}
	store, err := optsync.OpenStore(dir)
	if err != nil {
		return nil, err
	}

	// Cold: every cell is leased, simulated by a worker and reported back.
	var srv *optsync.FabricServer
	if err := tr.stage("campaign.expand", func() (err error) {
		srv, err = optsync.NewCampaignServer(c, store, optsync.FabricServerOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.stage("campaign.cold", func() error {
		var handler http.Handler = srv
		var rpc *rpcTimer
		if tr != nil {
			rpc = &rpcTimer{}
			handler = rpc.wrapHandler(srv)
		}
		hs := httptest.NewServer(handler)
		defer hs.Close()

		o.workers = make([]optsync.FabricWorkerStats, campaignWorkers)
		errs := make([]error, campaignWorkers)
		walls := make([]time.Duration, campaignWorkers)
		var wg sync.WaitGroup
		for k := 0; k < campaignWorkers; k++ {
			k := k
			opts := optsync.FabricWorkerOptions{
				Name:    fmt.Sprintf("bench-%d", k),
				Batch:   16,
				Workers: 1,
				// An idle worker polls fast: the default 200 ms would be
				// longer than the whole op.
				PollInterval: 2 * time.Millisecond,
				Rand:         rand.New(rand.NewSource(int64(k) + 1)),
				HTTPClient:   hs.Client(),
			}
			if rpc != nil {
				opts.HTTPClient = &http.Client{Transport: rpc.wrapTransport(hs.Client().Transport)}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				o.workers[k], errs[k] = optsync.RunWorker(ctx, hs.URL, opts)
				walls[k] = time.Since(t0)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if rpc != nil {
			rpc.fold(tr, walls)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	o.fabric = srv.Report()

	// Warm: the same campaign, single process, answered by the store.
	if err := tr.stage("campaign.resume_loose", func() (err error) {
		o.loose, err = optsync.RunCampaign(ctx, c, optsync.WithStore(store), optsync.WithCampaignWorkers(campaignWorkers))
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.stage("campaign.compact", func() error {
		st, err := optsync.CompactStore(store)
		o.compacted = st.Compacted
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.stage("campaign.resume_segment", func() (err error) {
		o.segment, err = optsync.RunCampaign(ctx, c, optsync.WithStore(store), optsync.WithCampaignWorkers(campaignWorkers))
		return err
	}); err != nil {
		return nil, err
	}
	return o, nil
}

// check verifies the three reports against each other and against the
// cell accounting each stage must show.
func (o *campaignOutcome) check() error {
	for _, c := range []struct {
		what           string
		r              *optsync.CampaignReport
		executed, hits int
	}{
		{"fabric run", o.fabric, campaignCells, 0},
		{"loose resume", o.loose, 0, campaignCells},
		{"segment resume", o.segment, 0, campaignCells},
	} {
		if c.r.Total != campaignCells || c.r.Executed != c.executed || c.r.CacheHits != c.hits {
			return fmt.Errorf("%s: %d cells, %d executed, %d cache hits; want %d/%d/%d",
				c.what, c.r.Total, c.r.Executed, c.r.CacheHits, campaignCells, c.executed, c.hits)
		}
	}
	if o.compacted != campaignCells {
		return fmt.Errorf("compaction folded %d cells, want %d", o.compacted, campaignCells)
	}
	want, err := json.Marshal(o.fabric.Groups)
	if err != nil {
		return err
	}
	for _, r := range []*optsync.CampaignReport{o.loose, o.segment} {
		got, err := json.Marshal(r.Groups)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("single-process aggregates differ from the fabric's")
		}
	}
	return nil
}

// rpcTimer times the fabric's RPCs from both ends without touching the
// fabric: an http.Handler around the coordinator and an http.RoundTripper
// under the workers' client. Workers and handlers run concurrently, so the
// accumulators are atomic.
type rpcTimer struct {
	lease, report, client rpcAcc
}

type rpcAcc struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (a *rpcAcc) observe(d time.Duration) {
	a.n.Add(1)
	a.ns.Add(int64(d))
}

func (t *rpcTimer) wrapHandler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		next.ServeHTTP(w, r)
		d := time.Since(t0)
		switch r.URL.Path {
		case "/lease":
			t.lease.observe(d)
		case "/report":
			t.report.observe(d)
		}
	})
}

type timedTransport struct {
	next http.RoundTripper
	acc  *rpcAcc
}

func (t timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.acc.observe(time.Since(t0))
	return resp, err
}

func (t *rpcTimer) wrapTransport(next http.RoundTripper) http.RoundTripper {
	return timedTransport{next: next, acc: &t.client}
}

// fold adds the accumulators into the op's trace as children of the
// cold stage.
func (t *rpcTimer) fold(tr *opTrace, walls []time.Duration) {
	const parent = "campaign.cold"
	tr.add("fabric.lease.server", parent, uint64(t.lease.n.Load()), time.Duration(t.lease.ns.Load()))
	tr.add("fabric.report.server", parent, uint64(t.report.n.Load()), time.Duration(t.report.ns.Load()))
	tr.add("fabric.rpc.client", parent, uint64(t.client.n.Load()), time.Duration(t.client.ns.Load()))
	var wall time.Duration
	for _, w := range walls {
		wall += w
	}
	// What a worker does when it is not waiting for the coordinator:
	// simulate its leased cells (and encode and decode the RPC bodies).
	tr.add("fabric.worker.sim", parent, uint64(len(walls)), wall-time.Duration(t.client.ns.Load()))
}
