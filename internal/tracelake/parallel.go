// Block decoding for every read in scan.go: a decodePool hands each of a
// read's block streams (one per event type for Scan, one for every other
// read) its admitted blocks in list order. A pool draws one reader per
// stream and, past one worker, `workers` prefetch readers shared by all
// streams: K + W readers for a K-type Scan, 1 + W otherwise. The consumer
// submits the decode jobs itself: a free reader goes to the stream whose
// next undecoded block has the lowest footer seqMin, the block the k-way
// merge asks for first, and a block not in flight when its stream asks is
// decoded on the spot into the reader the stream just released — so no
// stream waits on the shared readers, and delivery stays in list order.
// Parallel reads are byte-identical to serial ones at every worker count,
// the same bit-exactness contract sim.Shards set for the engine.
//
// The goroutines below never touch simulation state: they decode
// immutable container bytes and hand the results back to a single
// consumer in deterministic stream order, which is why the detrand
// goroutine rule is carved out for this file.
//
//syncsim:allowlist detrand reader-side decode pool: workers decode immutable blocks and deliver in fixed stream order, so query output is bit-exact at any worker count; no simulation state is touched

package tracelake

import (
	"runtime"
	"sync"
)

// slot is one reader of a pool and the job it was last submitted for:
// position pos of stream s. Only a submitted job sets s and pos, so the
// slot naming a stream's next position is the one decoding it.
type slot struct {
	br  *blockReader
	s   *blockStream
	pos int
	// The job's outcome, set by the worker under decodePool.mu.
	done bool
	rows *Rows
	err  error
}

// decodePool is one read's decoding resources: its streams, the readers
// it borrowed from the lake and, past one worker, the worker goroutines.
// Everything but a submitted slot's outcome belongs to the consumer
// goroutine. close stops the workers and waits, so no goroutine outlives
// the read that spawned it — error paths included.
type decodePool struct {
	lake    *Lake
	size    int // rows of the largest admitted block: a prefetch reader's capacity
	streams []blockStream
	slots   []slot
	spare   []*slot    // readers free to prefetch into
	jobs    chan *slot // nil at one worker
	wg      sync.WaitGroup
	mu      sync.Mutex
	cond    sync.Cond
	waiting *slot // the slot the consumer waits on, under mu
}

// newPool draws one reader per list of metas, sized to that list's
// largest block, and with more than one worker min(workers, blocks)
// prefetch readers sized to the largest block of all, then starts the
// workers on the first blocks the consumer will ask for.
func (l *Lake) newPool(workers int, lists [][]int, st *ScanStats) *decodePool {
	blocks := 0
	for _, metas := range lists {
		blocks += len(metas)
	}
	prefetch := 0
	if workers > 1 {
		prefetch = min(workers, blocks)
	}
	p := &decodePool{lake: l, streams: make([]blockStream, len(lists)), slots: make([]slot, len(lists)+prefetch)}
	for i, metas := range lists {
		rows := 0
		for _, mi := range metas {
			rows = max(rows, int(l.blocks[mi].count))
		}
		p.size = max(p.size, rows)
		p.streams[i] = blockStream{pool: p, metas: metas, held: &p.slots[i], st: st}
		p.slots[i].br = l.getReader(rows)
	}
	if prefetch == 0 {
		return p
	}
	p.spare = make([]*slot, 0, len(p.slots))
	for i := len(lists); i < len(p.slots); i++ {
		p.slots[i].br = l.getReader(p.size)
		p.spare = append(p.spare, &p.slots[i])
	}
	p.cond.L = &p.mu
	p.jobs = make(chan *slot, len(p.slots))
	p.wg.Add(prefetch)
	for i := 0; i < prefetch; i++ {
		go p.worker()
	}
	p.grant()
	return p
}

// worker decodes submitted jobs. Finishing the block the consumer waits
// on, it wakes the consumer and yields its processor to it: the scheduler
// queues a woken goroutine behind the one that woke it, so without the
// yield the consumer waits until this worker blocks or another processor
// steals it, tens of microseconds, and with one prefetch reader per
// worker the workers run out of jobs meanwhile.
func (p *decodePool) worker() {
	defer p.wg.Done()
	for sl := range p.jobs {
		rows, err := sl.br.read(p.lake, sl.s.metas[sl.pos])
		p.mu.Lock()
		sl.rows, sl.err, sl.done = rows, err, true
		awaited := p.waiting == sl
		p.mu.Unlock()
		if awaited {
			p.cond.Signal()
			runtime.Gosched()
		}
	}
}

// grant hands every spare reader to the stream whose next undecoded
// block has the lowest seqMin. The jobs channel holds a job per slot, so
// submitting never blocks.
func (p *decodePool) grant() {
	for len(p.spare) > 0 {
		var best *blockStream
		for i := range p.streams {
			if s := &p.streams[i]; s.sent < len(s.metas) && (best == nil || s.seqMin() < best.seqMin()) {
				best = s
			}
		}
		if best == nil {
			return
		}
		sl := p.spare[len(p.spare)-1]
		p.spare = p.spare[:len(p.spare)-1]
		sl.s, sl.pos, sl.done = best, best.sent, false
		best.sent++
		p.jobs <- sl
	}
}

// release frees a slot whose rows the consumer is done with. A reader
// too small for some admitted block stays parked with its stream, whose
// blocks it fits; any other joins the spare readers.
func (p *decodePool) release(s *blockStream, sl *slot) {
	if p.jobs != nil && cap(sl.br.rows.Seq) >= p.size {
		p.spare = append(p.spare, sl)
	} else {
		s.own = sl
	}
}

// close stops the workers and waits for them to exit. Callers defer it
// before consuming, so an early return (decode error, callback error)
// cannot leak goroutines: a worker finishes the jobs already submitted
// and exits. Only then, with nothing decoding into them or reading their
// rows, do the readers go back to the lake.
func (p *decodePool) close() {
	if p.jobs != nil {
		close(p.jobs)
		p.wg.Wait()
	}
	for i := range p.slots {
		p.lake.putReader(p.slots[i].br)
	}
}

// blockStream hands the decoded blocks of one metas list to its
// consumer in list order, whatever order the workers finish in. In-order
// delivery is what makes a parallel scan's output — and its error
// reporting — indistinguishable from the serial scanner's.
type blockStream struct {
	pool  *decodePool
	metas []int
	next  int   // next position take returns
	sent  int   // positions below sent are taken, decoding, or decoded
	held  *slot // the consumer's rows; before the first take, the stream's own reader
	own   *slot // a reader too small to prefetch for the other streams
	st    *ScanStats
}

// seqMin is the footer seqMin of the stream's next undecoded block.
func (s *blockStream) seqMin() uint64 { return s.pool.lake.blocks[s.metas[s.sent]].seqMin }

// take returns the next block, nil after the last one. The Rows alias a
// reader's buffers and stay valid until the following take. The reader
// of the previous block is released first; the next block is waited for
// if it was submitted, else decoded on the calling goroutine into a
// reader of the stream's own.
func (s *blockStream) take() (*Rows, error) {
	p, prev := s.pool, s.held
	if s.next == len(s.metas) {
		if prev != nil { // a finished stream's reader can prefetch for the others
			p.release(s, prev)
			s.held = nil
		}
		return nil, nil
	}
	var rows *Rows
	var err error
	if s.next < s.sent {
		var sl *slot
		for i := range p.slots {
			if c := &p.slots[i]; c.s == s && c.pos == s.next {
				sl = c
			}
		}
		p.release(s, prev)
		p.grant()
		p.mu.Lock()
		for p.waiting = sl; !sl.done; {
			p.cond.Wait()
		}
		p.waiting = nil
		p.mu.Unlock()
		s.held, rows, err = sl, sl.rows, sl.err
	} else {
		s.sent++
		if s.own != nil {
			s.held, s.own = s.own, nil
			p.release(s, prev)
		}
		p.grant()
		rows, err = s.held.br.read(p.lake, s.metas[s.next])
	}
	s.next++
	if err != nil {
		return nil, err
	}
	s.st.BlocksScanned++
	s.st.RowsDecoded += uint64(rows.Len())
	return rows, nil
}
