// Block decoding for every read in scan.go: a blockStream hands one
// list of admitted blocks to its consumer in list order. At one worker it
// decodes inline through one reader; otherwise it prefetches on a bounded
// pool of decode workers, each block into a reader of its own, and still
// delivers in list order — so parallel scans are byte-identical to serial
// ones at every worker count, the same bit-exactness contract sim.Shards
// set for the engine. Readers recycle through a bounded free list: the
// feeder can only run as many blocks ahead of the consumer as there are
// readers, which bounds memory and keeps the steady-state decode path
// allocation-free per block.
//
// The goroutines below never touch simulation state: they decode
// immutable container bytes and hand the results back to a single
// consumer in deterministic stream order, which is why the detrand
// goroutine rule is carved out for this file.
//
//syncsim:allowlist detrand reader-side decode pool: workers decode immutable blocks and deliver in fixed stream order, so query output is bit-exact at any worker count; no simulation state is touched

package tracelake

import "sync"

// decodeJob asks a worker to decode block stream.metas[pos] into br.
type decodeJob struct {
	stream *blockStream
	pos    int
	br     *blockReader
}

// decodePool is one scan's decoding resources, shared by every stream of
// that scan: the readers its streams borrowed from the lake and, past one
// worker, the worker goroutines, started with the first stream. close
// stops everything and waits, so no goroutine outlives the scan that
// spawned it — error paths included.
type decodePool struct {
	lake           *Lake
	workers, queue int
	jobs           chan decodeJob // nil until the workers start
	done           chan struct{}
	wg             sync.WaitGroup
	readers        []*blockReader
}

func (p *decodePool) worker() {
	defer p.wg.Done()
	for {
		select {
		case j := <-p.jobs:
			rows, err := j.br.read(p.lake, j.stream.metas[j.pos])
			j.stream.deliver(j.pos, j.br, rows, err)
		case <-p.done:
			return
		}
	}
}

// close aborts feeders and workers and waits for them to exit. Callers
// defer it before consuming, so an early return (decode error, callback
// error) cannot leak goroutines: a worker mid-block finishes, delivers
// (deliver never blocks), and exits. Only then, with nothing decoding
// into them or reading their rows, do the readers go back to the lake.
func (p *decodePool) close() {
	if p.jobs != nil {
		close(p.done)
		p.wg.Wait()
	}
	p.lake.putReader(p.readers...)
}

// stream starts delivering the blocks of metas in list order, decoding
// up to depth of them ahead of the consumer when the pool has more than
// one worker. Every block taken is counted into st.
func (p *decodePool) stream(metas []int, depth int, st *ScanStats) *blockStream {
	s := &blockStream{lake: p.lake, metas: metas, st: st}
	rows := 0 // the largest block of this stream, from the footer
	for _, mi := range metas {
		rows = max(rows, int(p.lake.blocks[mi].count))
	}
	if p.workers == 1 {
		s.br = p.lake.getReader(rows)
		p.readers = append(p.readers, s.br)
		return s
	}
	if p.jobs == nil {
		p.jobs, p.done = make(chan decodeJob, p.queue), make(chan struct{})
		for i := 0; i < p.workers; i++ {
			p.wg.Add(1)
			go p.worker()
		}
	}
	depth = min(depth, len(metas))
	s.free = make(chan *blockReader, depth)
	s.ring = make([]streamSlot, depth)
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < depth; i++ {
		br := p.lake.getReader(rows)
		p.readers = append(p.readers, br)
		s.free <- br
	}
	p.wg.Add(1)
	go p.feed(s)
	return s
}

// feed assigns free readers to successive positions. It runs at most
// depth blocks ahead of the consumer: a reader only returns to the free
// list once its block has been consumed.
func (p *decodePool) feed(s *blockStream) {
	defer p.wg.Done()
	for pos := range s.metas {
		var br *blockReader
		select {
		case br = <-s.free:
		case <-p.done:
			return
		}
		select {
		case p.jobs <- decodeJob{stream: s, pos: pos, br: br}:
		case <-p.done:
			return
		}
	}
}

// blockStream hands the decoded blocks of one metas list to its
// consumer in list order, whatever order the workers finish in. In-order
// delivery is what makes a parallel scan's output — and its error
// reporting — indistinguishable from the serial scanner's.
type blockStream struct {
	lake  *Lake
	metas []int
	next  int          // next position take returns
	br    *blockReader // the reader whose rows the consumer holds
	st    *ScanStats
	free  chan *blockReader // nil: decode inline into br

	mu   sync.Mutex
	cond *sync.Cond
	ring []streamSlot // the slot for position p is ring[p%len(ring)]
}

type streamSlot struct {
	filled bool
	br     *blockReader
	rows   *Rows
	err    error
}

// deliver parks a decoded block at its ring slot. The slot is free by
// construction — at most len(ring) positions are in flight, one per
// reader — so deliver never blocks and workers cannot deadlock against
// a consumer that already returned.
func (s *blockStream) deliver(pos int, br *blockReader, rows *Rows, err error) {
	s.mu.Lock()
	s.ring[pos%len(s.ring)] = streamSlot{filled: true, br: br, rows: rows, err: err}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// take returns the next block, nil after the last one. The Rows alias a
// reader's buffers and stay valid until the following take. Pooled, it
// first hands the previous block's reader back to the feeder (never
// blocking: the free list's capacity is the reader count), then waits
// for the next position to be decoded.
func (s *blockStream) take() (*Rows, error) {
	if s.next == len(s.metas) {
		return nil, nil
	}
	var rows *Rows
	var err error
	if s.free == nil {
		rows, err = s.br.read(s.lake, s.metas[s.next])
	} else {
		if s.br != nil {
			s.free <- s.br
		}
		s.mu.Lock()
		slot := &s.ring[s.next%len(s.ring)]
		for !slot.filled {
			s.cond.Wait()
		}
		rows, s.br, err = slot.rows, slot.br, slot.err
		*slot = streamSlot{}
		s.mu.Unlock()
	}
	s.next++
	if err != nil {
		return nil, err
	}
	s.st.BlocksScanned++
	s.st.RowsDecoded += uint64(rows.Len())
	return rows, nil
}
