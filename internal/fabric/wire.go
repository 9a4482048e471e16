// Package fabric turns a single-process campaign into a fleet: a
// coordinator (Server) owns the campaign's cell list, the lease table,
// and the content-addressed result store; stateless workers (Worker)
// pull batches of cells over HTTP, execute them through the harness
// worker pool, and push results back.
//
// The whole design leans on one property PR 3 bought: a cell is keyed
// by the content hash of its canonical spec, and its result is a
// deterministic function of that spec. Everything distributed systems
// usually make hard is therefore a no-op here —
//
//   - a worker crash only expires a lease; the cells return to the
//     pending queue and someone else runs them;
//   - a duplicate report (lease expired, two workers raced) carries a
//     byte-identical result by construction, so accepting either is
//     correct and the second is dropped without double-counting;
//   - a coordinator restart replays the store: finished cells are
//     preloaded as done, exactly like a single-process `-resume`.
//
// The wire protocol is deliberately small: four JSON POST/GET
// endpoints (/lease, /report, /progress, /aggregates) plus /healthz.
package fabric

import (
	"optsync/internal/campaign"
	"optsync/internal/harness"
)

// LeaseRequest asks the coordinator to check out up to Max pending
// cells to this worker.
type LeaseRequest struct {
	// Worker self-identifies the requester (diagnostics and lease
	// bookkeeping only; correctness never depends on worker identity).
	Worker string `json:"worker"`
	// Max bounds the batch; the coordinator may return fewer, and caps
	// it at its own batch limit.
	Max int `json:"max"`
}

// LeasedCell is one cell checked out to a worker: everything needed to
// execute it with no other state.
type LeasedCell struct {
	// Index is the cell's position in campaign expansion order.
	Index int `json:"index"`
	// Key is the cell's content address; reports must echo it.
	Key string `json:"key"`
	// Spec is the fully assembled run description.
	Spec harness.Spec `json:"spec"`
}

// LeaseResponse returns the checked-out batch.
type LeaseResponse struct {
	// Cells is the leased batch (empty when nothing is pending).
	Cells []LeasedCell `json:"cells,omitempty"`
	// TTLMillis is how long the lease holds before the cells return to
	// the pending queue.
	TTLMillis int64 `json:"ttl_ms"`
	// Complete reports that every campaign cell is done: the worker can
	// exit.
	Complete bool `json:"complete"`
	// Pending counts cells neither done nor currently leased. A worker
	// seeing Cells empty, Complete false, and Pending 0 knows the
	// remaining work is leased elsewhere and backs off politely.
	Pending int `json:"pending"`
}

// CellReport is one finished cell travelling back to the coordinator.
type CellReport struct {
	Index  int            `json:"index"`
	Key    string         `json:"key"`
	Result harness.Result `json:"result"`
}

// ReportRequest submits a batch of finished cells.
type ReportRequest struct {
	Worker string       `json:"worker"`
	Cells  []CellReport `json:"cells"`
}

// ReportResponse acknowledges a report batch.
type ReportResponse struct {
	// Accepted counts newly settled cells; Duplicates counts cells that
	// were already done (safe no-ops); Rejected counts malformed entries
	// (an index/key mismatch, or a result whose spec does not key to the
	// cell — a client bug, not a race).
	Accepted   int  `json:"accepted"`
	Duplicates int  `json:"duplicates"`
	Rejected   int  `json:"rejected"`
	Complete   bool `json:"complete"`
}

// Progress is the coordinator's live execution accounting.
type Progress struct {
	// Campaign echoes the campaign name.
	Campaign string `json:"campaign,omitempty"`
	// Total = Done + Leased + Pending at all times.
	Total   int `json:"total"`
	Done    int `json:"done"`
	Leased  int `json:"leased"`
	Pending int `json:"pending"`
	// Executed counts cells settled by worker reports this serve;
	// CacheHits counts cells preloaded from the store at startup.
	Executed  int  `json:"executed"`
	CacheHits int  `json:"cache_hits"`
	Complete  bool `json:"complete"`
	// Store is the result store's own accounting since it was opened:
	// appends, hits and misses, seals, what Open recovered.
	Store campaign.Stats `json:"store"`
}

// Aggregates is the live grouped-summary snapshot: the campaign's
// per-group statistics over every cell settled so far. Once Complete,
// Groups is byte-identical to the single-process campaign report for
// the same campaign and store.
type Aggregates struct {
	Campaign string           `json:"campaign,omitempty"`
	Total    int              `json:"total"`
	Done     int              `json:"done"`
	Complete bool             `json:"complete"`
	Groups   []campaign.Group `json:"groups"`
}

// wireError is the JSON error envelope every non-200 response carries.
type wireError struct {
	Error string `json:"error"`
}
