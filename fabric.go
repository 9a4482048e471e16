package optsync

import (
	"context"

	"optsync/internal/campaign"
	"optsync/internal/fabric"
)

// The distributed-campaign fabric, re-exported as aliases. A coordinator
// (ServeCampaign) owns the expanded cell list and the result store and
// hands out cell leases over a small JSON/HTTP API; stateless workers
// (RunWorker) pull leases, execute them through the simulation pool, and
// report results back. Because cells are content-addressed by SpecKey,
// every failure mode reduces to something already safe: a crashed worker
// is a lease that expires and re-queues, a duplicate report carries a
// byte-identical result and is dropped, and a restarted coordinator
// replays settled cells from the store exactly like a -resume run.
type (
	// FabricServer is the campaign coordinator; it implements
	// http.Handler, so it can be mounted in a larger mux. Most callers
	// want ServeCampaign, which also owns the listener and lifecycle.
	FabricServer = fabric.Server
	// FabricServerOptions tunes coordinator behavior: lease TTL and
	// batch size, background compaction cadence, progress callbacks.
	FabricServerOptions = fabric.ServerOptions
	// FabricServeOptions wraps FabricServerOptions with listener
	// lifecycle knobs (address, readiness hook, shutdown grace,
	// compact-on-exit).
	FabricServeOptions = fabric.ServeOptions
	// FabricWorkerOptions tunes a worker: lease batch size, local
	// simulation parallelism, poll interval, retry backoff, and the
	// report grace window used during shutdown.
	FabricWorkerOptions = fabric.WorkerOptions
	// FabricWorkerStats summarizes one worker run: cells executed,
	// leases taken, RPC retries.
	FabricWorkerStats = fabric.WorkerStats
	// FabricProgress is the coordinator's /progress wire shape.
	FabricProgress = fabric.Progress
	// FabricAggregates is the coordinator's /aggregates wire shape.
	FabricAggregates = fabric.Aggregates
)

// ServeCampaign runs a campaign coordinator until every cell settles or
// ctx is cancelled, then shuts down gracefully (in-flight reports
// finish and are stored) and returns the final report. On cancellation
// the error is ctx's and the report covers the settled prefix; the
// store already holds every settled cell, so serving again — or a plain
// RunCampaign with the same store — resumes exactly where this run
// stopped. The report's aggregates are byte-identical to what
// RunCampaign produces for the same campaign, regardless of how many
// workers contributed.
func ServeCampaign(ctx context.Context, c Campaign, store *Store, opts FabricServeOptions) (*CampaignReport, error) {
	return fabric.Serve(ctx, c, store, opts)
}

// RunWorker runs one stateless worker loop against a coordinator's base
// URL until the campaign completes (nil error), ctx is cancelled, or
// the coordinator stays unreachable past the retry budget. Workers hold
// no campaign state: killing one at any instant only expires a lease.
func RunWorker(ctx context.Context, coordinatorURL string, opts FabricWorkerOptions) (FabricWorkerStats, error) {
	return fabric.NewWorker(coordinatorURL, opts).Run(ctx)
}

// NewCampaignServer builds a coordinator without binding a listener,
// for embedding the fabric API into an existing HTTP server. The
// returned server preloads settled cells from the store (resume
// semantics) and is ready to mount as an http.Handler.
func NewCampaignServer(c Campaign, store *Store, opts FabricServerOptions) (*FabricServer, error) {
	return fabric.NewServer(c, store, opts)
}

// CompactStore seals the store: every cell accepted so far is fsynced,
// its segment moved from cells/ to segments/ and index.json republished;
// it returns how many cells that made index-durable. Safe to run while a
// coordinator is accepting reports against the same store. Store.Close
// does the same and then releases the store.
func CompactStore(s *Store) (campaign.CompactStats, error) {
	return s.Compact()
}

// CompactStats reports one seal.
type CompactStats = campaign.CompactStats

// StoreStats is Store.Stats' counters: appends and batches, hits, misses
// and damaged reads, seals, and what OpenStore recovered. They describe
// the execution, not the results, and reach no cell, record or report;
// the coordinator's /progress carries them as "store".
type StoreStats = campaign.Stats
