package tracelake

import (
	"fmt"
	"math"
	"runtime"

	"optsync/internal/probe"
)

// Query selects events. The zero value selects everything; the Filter*
// booleans arm the range predicates so that node 0, time 0, and round 0
// stay expressible. The chainable With* helpers set field and flag
// together:
//
//	q := tracelake.Query{}.WithTypes(probe.TypeSkewSample).
//		WithNode(17).WithTimeRange(2.5, 9.0)
//
// Every predicate is pushed down to the footer index first: blocks whose
// type, time span, node-id span, or round span cannot intersect the
// query are never read, let alone decoded.
type Query struct {
	// Types restricts to the listed event types; empty means all.
	Types []probe.Type
	// Node keeps events with From == Node or To == Node, when FilterNode.
	Node       int32
	FilterNode bool
	// TMin/TMax keep events with TMin <= T <= TMax, when FilterTime.
	TMin, TMax float64
	FilterTime bool
	// RoundMin/RoundMax keep events with RoundMin <= Round <= RoundMax,
	// when FilterRound.
	RoundMin, RoundMax int32
	FilterRound        bool
	// Workers bounds the scan's decode parallelism: 0 (the zero value)
	// means one worker per core (runtime.GOMAXPROCS), 1 decodes inline
	// on the calling goroutine, higher values pin the pool width. A read
	// holds one decode reader per block stream (per event type for
	// Scan, one otherwise) plus, above one worker, Workers prefetch
	// readers shared by all streams: K + W for a K-type Scan, 1 + W
	// otherwise. Output and error reporting are byte-identical at every
	// worker count — parallel decode changes wall-clock time, nothing
	// else. Negative values are an error.
	Workers int
}

// WithTypes returns q restricted to the given event types.
func (q Query) WithTypes(types ...probe.Type) Query {
	q.Types = types
	return q
}

// WithNode returns q restricted to events touching node id (as sender or
// receiver).
func (q Query) WithNode(id int32) Query {
	q.Node, q.FilterNode = id, true
	return q
}

// WithTimeRange returns q restricted to events with lo <= T <= hi.
func (q Query) WithTimeRange(lo, hi float64) Query {
	q.TMin, q.TMax, q.FilterTime = lo, hi, true
	return q
}

// WithRounds returns q restricted to events with lo <= Round <= hi.
func (q Query) WithRounds(lo, hi int32) Query {
	q.RoundMin, q.RoundMax, q.FilterRound = lo, hi, true
	return q
}

// WithRound returns q restricted to one exact round.
func (q Query) WithRound(k int32) Query { return q.WithRounds(k, k) }

// WithWorkers returns q with the given decode-worker count (see the
// Workers field).
func (q Query) WithWorkers(n int) Query {
	q.Workers = n
	return q
}

// typeMask folds Types into a bitmap.
func (q *Query) typeMask() [probe.NumTypes]bool {
	var m [probe.NumTypes]bool
	if len(q.Types) == 0 {
		for i := 1; i < probe.NumTypes; i++ {
			m[i] = true
		}
		return m
	}
	for _, t := range q.Types {
		if int(t) > 0 && int(t) < probe.NumTypes {
			m[t] = true
		}
	}
	return m
}

// admitsBlock reports whether the block's footer bounds intersect q.
func (q *Query) admitsBlock(mask *[probe.NumTypes]bool, m *blockMeta) bool {
	if !mask[m.typ] {
		return false
	}
	if q.FilterTime && (m.tMax < q.TMin || m.tMin > q.TMax) {
		return false
	}
	if q.FilterNode && (q.Node < m.nodeMin || q.Node > m.nodeMax) {
		return false
	}
	if q.FilterRound && (m.roundMax < q.RoundMin || m.roundMin > q.RoundMax) {
		return false
	}
	return true
}

// coversBlock reports whether the footer bounds prove that EVERY row of
// an already-admitted block passes q's row predicates — the footer-only
// fast path of Stats. The node predicate keeps rows touching q.Node as
// sender or receiver, which the bounds only prove when both columns are
// pinned to that one id; anything wider is conservatively "partial".
func (q *Query) coversBlock(m *blockMeta) bool {
	if q.FilterTime && (m.tMin < q.TMin || m.tMax > q.TMax) {
		return false
	}
	if q.FilterNode && (m.nodeMin != q.Node || m.nodeMax != q.Node) {
		return false
	}
	if q.FilterRound && (m.roundMin < q.RoundMin || m.roundMax > q.RoundMax) {
		return false
	}
	return true
}

// admitsRow applies the row-level predicates to row i of r (the type was
// settled at block level).
func (q *Query) admitsRow(r *Rows, i int) bool {
	if q.FilterTime && (r.T[i] < q.TMin || r.T[i] > q.TMax) {
		return false
	}
	if q.FilterNode && r.From[i] != q.Node && r.To[i] != q.Node {
		return false
	}
	if q.FilterRound && (r.Round[i] < q.RoundMin || r.Round[i] > q.RoundMax) {
		return false
	}
	return true
}

// ScanStats reports what a scan touched — the observable proof that
// pruning skipped non-matching row groups.
type ScanStats struct {
	// BlocksTotal is the container's block count; BlocksPruned of them
	// were skipped on footer bounds alone and BlocksScanned were read
	// and decoded. BlocksCovered (Stats only) were answered from the
	// footer without decoding: the bounds proved every row matches.
	BlocksTotal, BlocksPruned, BlocksScanned, BlocksCovered int
	// RowsDecoded counts rows in scanned blocks; EventsMatched of them
	// passed the row-level predicates.
	RowsDecoded, EventsMatched uint64
}

// plan is the footer half of every read. It resolves q.Workers and sorts
// the blocks on their footer entries alone: pruned (the bounds cannot
// intersect q), answered (answer, when non-nil, accepts the block: it
// counts as covered and all its rows as matched), or to be decoded —
// returned in file order.
func (l *Lake) plan(q *Query, answer func(*blockMeta) bool) (workers int, metas []int, st ScanStats, err error) {
	switch workers = q.Workers; {
	case workers < 0:
		return 0, nil, st, fmt.Errorf("tracelake: negative worker count %d", workers)
	case workers == 0:
		workers = runtime.GOMAXPROCS(0)
	}
	mask := q.typeMask()
	st.BlocksTotal = len(l.blocks)
	for i := range l.blocks {
		switch m := &l.blocks[i]; {
		case !q.admitsBlock(&mask, m):
			st.BlocksPruned++
		case answer != nil && answer(m):
			st.BlocksCovered++
			st.EventsMatched += uint64(m.count)
		default:
			metas = append(metas, i)
		}
	}
	return workers, metas, st, nil
}

// each decodes the blocks of metas and hands them to visit, in metas
// order, on the calling goroutine. The Rows are valid until visit returns.
func (l *Lake) each(workers int, metas []int, st *ScanStats, visit func(*Rows) error) error {
	if len(metas) == 0 {
		return nil
	}
	pool := l.newPool(workers, [][]int{metas}, st)
	defer pool.close()
	s := &pool.streams[0]
	for {
		rows, err := s.take()
		if rows == nil || err != nil {
			return err
		}
		if err := visit(rows); err != nil {
			return err
		}
	}
}

// ScanRows visits every block q admits, in file order, decoded into
// struct-of-arrays form. fn sees whole blocks: rows failing q's
// row-level predicates are included (pruning is block-granular here);
// use Scan for exact row filtering in stream order. This is the raw
// bandwidth interface — a full scan decodes every column of every event
// and nothing else. With q.Workers != 1 the admitted blocks decode on a
// worker pool; fn still sees them one at a time, in file order, on the
// calling goroutine.
func (l *Lake) ScanRows(q Query, fn func(*Rows) error) (ScanStats, error) {
	workers, metas, st, err := l.plan(&q, nil)
	if err != nil {
		return st, err
	}
	err = l.each(workers, metas, &st, fn)
	return st, err
}

// cursor walks the admitted blocks of one event type in seq order,
// positioned on the next row that passes the query's row predicates.
type cursor struct {
	q    *Query
	s    *blockStream // the type's admitted blocks, seq-sorted
	rows *Rows
	idx  int
	st   *ScanStats
}

// advance moves to the next admitted row, loading blocks as needed.
// Returns false when the cursor is exhausted.
//
//syncsim:hotpath
func (c *cursor) advance() (bool, error) {
	for {
		if c.rows != nil {
			for c.idx++; c.idx < c.rows.Len(); c.idx++ {
				if c.q.admitsRow(c.rows, c.idx) {
					return true, nil
				}
			}
		}
		rows, err := c.s.take()
		if rows == nil || err != nil {
			return false, err
		}
		c.rows, c.idx = rows, -1
	}
}

// headSeq is the stream position of the cursor's current row.
func (c *cursor) headSeq() uint64 { return c.rows.Seq[c.idx] }

// emitRun hands fn the cursor's current row and then the rows after it in
// the same block, for as long as the next one is admitted and precedes
// limit in the stream. The cursor stays on the last row handed over.
//
//syncsim:hotpath
func (c *cursor) emitRun(limit uint64, fn func(probe.Event) error) error {
	r := c.rows
	for {
		c.st.EventsMatched++
		if err := fn(r.Event(c.idx)); err != nil {
			return err
		}
		next := c.idx + 1
		if next >= len(r.Seq) || r.Seq[next] >= limit || !c.q.admitsRow(r, next) {
			return nil
		}
		c.idx = next
	}
}

// Scan streams every event q admits through fn, in recorded stream
// order — the per-type blocks are merged back by the seq column, so a
// match-all Scan reproduces the original probe stream exactly (which is
// what Replay builds on). Block pruning happens first; rows of admitted
// blocks are then filtered exactly. With q.Workers != 1 the blocks the
// merge asks for next prefetch-decode on a worker pool, into readers
// shared by all types, while the merge loop runs on the calling
// goroutine — the merged stream (and its error reporting) is
// byte-identical to the serial scan at every worker count.
func (l *Lake) Scan(q Query, fn func(probe.Event) error) (ScanStats, error) {
	workers, metas, st, err := l.plan(&q, nil)
	if err != nil {
		return st, err
	}
	var perType [probe.NumTypes][]int
	for _, mi := range metas {
		perType[l.blocks[mi].typ] = append(perType[l.blocks[mi].typ], mi)
	}
	lists := make([][]int, 0, probe.NumTypes)
	for _, metas := range perType {
		if len(metas) > 0 {
			lists = append(lists, metas)
		}
	}
	pool := l.newPool(workers, lists, &st)
	defer pool.close()

	cursors := make([]*cursor, 0, len(lists))
	for i := range pool.streams {
		c := &cursor{q: &q, s: &pool.streams[i], st: &st, idx: -1}
		ok, err := c.advance()
		if err != nil {
			return st, err
		}
		if ok {
			cursors = append(cursors, c)
		}
	}

	// K-way merge by seq, a same-type run at a time: the cursor with the
	// lowest head emits up to the runner-up's head. K is at most the number
	// of event types, so a linear min beats heap bookkeeping.
	for len(cursors) > 0 {
		mi := 0
		minSeq, limit := cursors[0].headSeq(), uint64(math.MaxUint64)
		for i := 1; i < len(cursors); i++ {
			switch s := cursors[i].headSeq(); {
			case s < minSeq:
				mi, minSeq, limit = i, s, minSeq
			case s < limit:
				limit = s
			}
		}
		c := cursors[mi]
		if err := c.emitRun(limit, fn); err != nil {
			return st, err
		}
		ok, err := c.advance()
		if err != nil {
			return st, err
		}
		if !ok {
			cursors[mi] = cursors[len(cursors)-1]
			cursors = cursors[:len(cursors)-1]
		}
	}
	return st, nil
}

// ScanUnordered streams every event q admits through fn in FILE order
// instead of global stream order: an admitted block's matching rows are
// emitted consecutively, blocks in container order. That drops the
// k-way seq merge — for a single-type query the two orders coincide (a
// type's blocks are seq-sorted), for multi-type queries events of
// different types interleave differently than they were recorded. The
// order is still fully deterministic and identical at every worker
// count; use Scan when downstream consumers are order-sensitive
// (collectors, replay).
func (l *Lake) ScanUnordered(q Query, fn func(probe.Event) error) (ScanStats, error) {
	matched := uint64(0)
	st, err := l.ScanRows(q, func(r *Rows) error {
		for i := 0; i < r.Len(); i++ {
			if !q.admitsRow(r, i) {
				continue
			}
			matched++
			if err := fn(r.Event(i)); err != nil {
				return err
			}
		}
		return nil
	})
	st.EventsMatched = matched
	return st, err
}

// Stats reports what q would match without streaming any events: it is
// Replay with nothing subscribed. Blocks are classified from the footer
// index alone: pruned (bounds cannot intersect q), covered (bounds prove
// every row matches — the count comes straight from the footer entry),
// or partial. Only partial blocks are decoded and row-counted, so a
// whole-lake count — or any query whose predicates align with block
// bounds — answers in O(footer) with zero blocks decoded.
func (l *Lake) Stats(q Query) (ScanStats, error) {
	return l.fold(q, &probe.Bus{})
}

// Replay streams the events q admits through the given probes
// (collectors subscribe to the types they declare, like probe.Replay).
// A match-all Replay through fresh collectors reproduces the live run's
// aggregates exactly: the lake round-trips float64 bits and restores the
// stream order collectors are sensitive to. Returns the number of events
// replayed.
//
// When every probe is a probe.Folder (the built-in collectors are) no
// event is materialized or merged: admitted blocks fold as column batches,
// each type's in its stream order. One probe that is not and it is Scan.
func (l *Lake) Replay(q Query, probes ...probe.Probe) (int, error) {
	var bus probe.Bus
	bus.AttachAll(probes...)
	for _, p := range probes {
		if _, ok := p.(probe.Folder); !ok {
			n := 0
			_, err := l.Scan(q, func(ev probe.Event) error {
				n++
				//syncsim:allowlist probeguard selective replay emits every matched event to explicitly attached probes; no unobserved fast path here
				bus.Emit(ev)
				return nil
			})
			return n, err
		}
	}
	st, err := l.fold(q, &bus)
	return int(st.EventsMatched), err
}

// fold is Stats and Replay below the merge: a block of a type nobody
// subscribes to that the footer proves fully matching is only counted; a
// decoded block folds into bus whole when the footer proves it, else as
// its maximal runs of admitted rows.
func (l *Lake) fold(q Query, bus *probe.Bus) (ScanStats, error) {
	workers, metas, st, err := l.plan(&q, func(m *blockMeta) bool {
		return !bus.Active(m.typ) && q.coversBlock(m)
	})
	if err != nil {
		return st, err
	}
	next := 0
	var b probe.Batch
	// Assigned, not returned beside st: the callback mutates st, and Go
	// leaves a variable read unordered against a call in one statement.
	err = l.each(workers, metas, &st, func(rows *Rows) error {
		covered := q.coversBlock(&l.blocks[metas[next]])
		next++
		for i := 0; i < rows.Len(); i++ {
			j := rows.Len()
			if !covered {
				if !q.admitsRow(rows, i) {
					continue
				}
				for j = i + 1; j < rows.Len() && q.admitsRow(rows, j); j++ {
				}
			}
			st.EventsMatched += uint64(j - i)
			if bus.Active(rows.Type) {
				b = rows.batch(i, j)
				bus.Fold(&b)
			}
			i = j
		}
		return nil
	})
	return st, err
}
