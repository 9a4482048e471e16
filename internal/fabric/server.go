package fabric

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"optsync/internal/campaign"
	"optsync/internal/harness"
)

// DefaultLeaseTTL is the lease lifetime when ServerOptions leaves it
// zero: long enough for a worker to finish a realistic batch, short
// enough that a crashed worker's cells come back quickly.
const DefaultLeaseTTL = 60 * time.Second

// DefaultLeaseBatch caps how many cells one lease hands out when
// ServerOptions leaves it zero.
const DefaultLeaseBatch = 64

// ServerOptions configures a coordinator.
type ServerOptions struct {
	// LeaseTTL is how long a worker holds leased cells before they are
	// reclaimed (0: DefaultLeaseTTL).
	LeaseTTL time.Duration
	// LeaseBatch caps cells per lease regardless of what the worker
	// asks for (0: DefaultLeaseBatch).
	LeaseBatch int
	// CompactEvery seals the store after this many worker-reported cells
	// (0: only on Close/explicit Compact), bounding what a machine crash
	// could cost to that many. The seal runs in the background,
	// concurrent with reports — the store's ordering contract makes that
	// safe.
	CompactEvery int
	// Progress, if non-nil, is invoked after every newly settled cell.
	Progress func(done, total int)
	// Now injects the lease clock (tests); nil means time.Now.
	Now func() time.Time
	// Warn receives recoverable-damage log lines (nil: log.Printf).
	Warn func(format string, args ...any)
}

// Server is the campaign coordinator: it owns the expanded cell list,
// the lease table, and the result store, and serves the fabric wire
// protocol as an http.Handler:
//
//	POST /lease       check out a batch of pending cells with a TTL
//	POST /report      submit finished cells (idempotent)
//	GET  /progress    live execution accounting
//	GET  /aggregates  live grouped summaries over settled cells
//	GET  /healthz     liveness
//
// The server never simulates anything itself; it is pure bookkeeping
// around the store, which is why thousands of lease/report RPCs per
// second cost it nothing measurable.
type Server struct {
	cells []campaign.Cell
	store *campaign.Store
	table *leaseTable
	opts  ServerOptions
	mux   *http.ServeMux

	mu        sync.Mutex
	results   []harness.Result
	settled   []bool
	executed  int // settled by worker reports
	preloaded int // settled from the store at startup
	sinceComp int // reports since the last background seal
	compactng bool

	doneOnce sync.Once
	doneCh   chan struct{}

	name string
}

// NewServer expands the campaign, preloads every cell the store already
// answers (exactly the single-process resume semantics), and returns a
// ready-to-serve coordinator.
func NewServer(c campaign.Campaign, store *campaign.Store, opts ServerOptions) (*Server, error) {
	if store == nil {
		return nil, errors.New("fabric: coordinator needs a store (results must be durable before cells settle)")
	}
	cells, err := c.Cells()
	if err != nil {
		return nil, err
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL
	}
	if opts.LeaseBatch <= 0 {
		opts.LeaseBatch = DefaultLeaseBatch
	}
	if opts.Warn == nil {
		opts.Warn = log.Printf
	}
	s := &Server{
		cells:   cells,
		store:   store,
		table:   newLeaseTable(len(cells), opts.LeaseTTL, opts.Now),
		opts:    opts,
		results: make([]harness.Result, len(cells)),
		settled: make([]bool, len(cells)),
		doneCh:  make(chan struct{}),
		name:    c.Name,
	}
	for i, cell := range cells {
		res, ok, err := store.Get(cell.Key)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		res.Spec.Name = cell.Spec.Name
		s.results[i] = res
		s.settled[i] = true
		s.table.markDone(i)
		s.preloaded++
	}
	if s.table.complete() {
		s.doneOnce.Do(func() { close(s.doneCh) })
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/lease", s.handleLease)
	mux.HandleFunc("/report", s.handleReport)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/aggregates", s.handleAggregates)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Done is closed when every campaign cell has settled.
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// Complete reports whether every campaign cell has settled.
func (s *Server) Complete() bool { return s.table.complete() }

// Cells returns the number of campaign cells.
func (s *Server) Cells() int { return len(s.cells) }

// Report assembles the final campaign report. It is meaningful any time
// (partial aggregates over settled cells) but canonical once Complete:
// then Groups is byte-identical to what the single-process campaign run
// produces for the same campaign and store.
func (s *Server) Report() *campaign.Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	cells, results := s.settledSnapshotLocked()
	return &campaign.Report{
		Name:      s.name,
		Total:     len(s.cells),
		Executed:  s.executed,
		CacheHits: s.preloaded,
		Groups:    campaign.Aggregate(cells, results),
		Cells:     cells,
		Results:   results,
	}
}

// settledSnapshotLocked returns the settled prefix-preserving subset of
// (cells, results), aligned index-for-index.
func (s *Server) settledSnapshotLocked() ([]campaign.Cell, []harness.Result) {
	cells := make([]campaign.Cell, 0, len(s.cells))
	results := make([]harness.Result, 0, len(s.cells))
	for i := range s.cells {
		if s.settled[i] {
			cells = append(cells, s.cells[i])
			results = append(results, s.results[i])
		}
	}
	return cells, results
}

// Compact seals the store: every accepted cell becomes index-durable.
func (s *Server) Compact() (campaign.CompactStats, error) { return s.store.Compact() }

// ioBuf is one pooled JSON scratch: a byte buffer with an encoder bound
// to it for life. The coordinator's two hot endpoints run thousands of
// times per second against a fleet, and re-allocating an encode buffer
// and a body-read buffer per RPC was the bulk of its per-op garbage
// (PR 6 measured 255 allocs and ~28 KB per lease+report pair).
type ioBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var ioBufPool = sync.Pool{New: func() any {
	b := &ioBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// readJSON slurps one request body through a pooled buffer and decodes
// it. Decoding from a contiguous buffer also means a malformed body is
// rejected without partially consuming the connection.
func readJSON(r *http.Request, v any) error {
	b := ioBufPool.Get().(*ioBuf)
	b.buf.Reset()
	_, err := b.buf.ReadFrom(r.Body)
	if err == nil {
		err = json.Unmarshal(b.buf.Bytes(), v)
	}
	ioBufPool.Put(b)
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b := ioBufPool.Get().(*ioBuf)
	b.buf.Reset()
	if err := b.enc.Encode(v); err != nil {
		ioBufPool.Put(b)
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(b.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(b.buf.Bytes())
	ioBufPool.Put(b)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, wireError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /lease")
		return
	}
	var req LeaseRequest
	if err := readJSON(r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "lease: %v", err)
		return
	}
	max := req.Max
	if max <= 0 || max > s.opts.LeaseBatch {
		max = s.opts.LeaseBatch
	}
	// The checkout ids and the response batch live in pooled scratch:
	// both are dead once writeJSON has copied the encoding out.
	sc := leaseScratchPool.Get().(*leaseScratch)
	sc.ids = s.table.lease(req.Worker, max, sc.ids[:0])
	sc.cells = sc.cells[:0]
	for _, i := range sc.ids {
		sc.cells = append(sc.cells, LeasedCell{Index: i, Key: s.cells[i].Key, Spec: s.cells[i].Spec})
	}
	resp := LeaseResponse{
		Cells:     sc.cells,
		TTLMillis: s.opts.LeaseTTL.Milliseconds(),
		Complete:  s.table.complete(),
	}
	_, _, resp.Pending = s.table.counts()
	writeJSON(w, http.StatusOK, resp)
	leaseScratchPool.Put(sc)
}

// leaseScratch is the per-request checkout scratch reused across /lease
// calls.
type leaseScratch struct {
	ids   []int
	cells []LeasedCell
}

var leaseScratchPool = sync.Pool{New: func() any { return &leaseScratch{} }}

// reportReqPool recycles /report request envelopes (the worker-batch
// slice is the reusable part; see handleReport for the zeroing contract).
var reportReqPool = sync.Pool{New: func() any { return new(ReportRequest) }}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST /report")
		return
	}
	// Reuse a pooled request across reports. Every element up to capacity
	// is zeroed before decoding: encoding/json reuses the backing array
	// but leaves fields absent from the JSON untouched in reused
	// elements, so each element must start from the zero value — and
	// zeroing also guarantees the Result a previous report copied into
	// s.results shares no inner slices with what this decode writes.
	req := reportReqPool.Get().(*ReportRequest)
	cells := req.Cells[:cap(req.Cells)]
	for i := range cells {
		cells[i] = CellReport{}
	}
	req.Cells = cells[:0]
	req.Worker = ""
	defer reportReqPool.Put(req)
	if err := readJSON(r, req); err != nil {
		writeErr(w, http.StatusBadRequest, "report: %v", err)
		return
	}
	var resp ReportResponse
	valid := req.Cells[:0]
	for _, cr := range req.Cells {
		if cr.Index < 0 || cr.Index >= len(s.cells) || s.cells[cr.Index].Key != cr.Key {
			// An index/key mismatch is a client bug or a stale campaign
			// definition — never silently store it under the wrong key.
			s.opts.Warn("fabric: worker %s reported cell %d with key %.8s (mismatch); rejected", req.Worker, cr.Index, cr.Key)
			resp.Rejected++
			continue
		}
		valid = append(valid, cr)
	}
	// Durability before accounting: the report's cells land in the store,
	// in one write, before the lease table (and the live aggregates) count
	// any of them as done, so a coordinator crash between the two
	// re-serves them from the store on restart instead of losing them.
	err := s.store.PutBatch(len(valid), func(i int) (string, harness.Result) { return valid[i].Key, valid[i].Result })
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "storing %d cells: %v", len(valid), err)
		return
	}
	for _, cr := range valid {
		if !s.table.report(cr.Index) {
			resp.Duplicates++
			continue
		}
		s.mu.Lock()
		s.results[cr.Index] = cr.Result
		s.settled[cr.Index] = true
		s.executed++
		s.sinceComp++
		compact := s.opts.CompactEvery > 0 && s.sinceComp >= s.opts.CompactEvery && !s.compactng
		if compact {
			s.sinceComp = 0
			s.compactng = true
		}
		s.mu.Unlock()
		resp.Accepted++
		if s.opts.Progress != nil {
			s.opts.Progress(s.table.doneCount(), len(s.cells))
		}
		if compact {
			go s.backgroundCompact()
		}
	}
	resp.Complete = s.table.complete()
	if resp.Complete {
		s.doneOnce.Do(func() { close(s.doneCh) })
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) backgroundCompact() {
	if _, err := s.store.Compact(); err != nil {
		s.opts.Warn("fabric: background seal: %v", err)
	}
	s.mu.Lock()
	s.compactng = false
	s.mu.Unlock()
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	done, leased, pending := s.table.counts()
	s.mu.Lock()
	executed, preloaded := s.executed, s.preloaded
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Progress{
		Campaign:  s.name,
		Total:     len(s.cells),
		Done:      done,
		Leased:    leased,
		Pending:   pending,
		Executed:  executed,
		CacheHits: preloaded,
		Complete:  done == len(s.cells),
		Store:     s.store.Stats(),
	})
}

func (s *Server) handleAggregates(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	cells, results := s.settledSnapshotLocked()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, Aggregates{
		Campaign: s.name,
		Total:    len(s.cells),
		Done:     len(cells),
		Complete: len(cells) == len(s.cells),
		Groups:   campaign.Aggregate(cells, results),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
