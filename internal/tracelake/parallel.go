// Parallel block decoding: the scan entry points in scan.go partition a
// query's admitted blocks across a bounded pool of decode workers, each
// owning its own blockReader scratch, and consume the decoded blocks in
// a fixed order — so parallel scans are byte-identical to serial ones at
// every worker count, the same bit-exactness contract sim.Shards set for
// the engine. Readers recycle through a bounded free list: the feeder
// can only run as many blocks ahead of the consumer as there are
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

import (
	"fmt"
	"runtime"
	"sync"
)

// resolveWorkers maps Query.Workers onto a concrete pool width: 0 means
// one worker per core, 1 is the serial scanner, negatives are an error.
func resolveWorkers(n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("tracelake: negative worker count %d", n)
	}
	if n == 0 {
		return runtime.GOMAXPROCS(0), nil
	}
	return n, nil
}

// decodeJob asks a worker to decode block stream.metas[pos] into br.
type decodeJob struct {
	stream *blockStream
	pos    int
	br     *blockReader
}

// decodePool is one scan's worker set, shared by every stream of that
// scan. Feeders enqueue jobs as readers free up; workers decode and
// deliver to the job's stream. close stops everything and waits, so no
// goroutine outlives the scan that spawned it — error paths included.
type decodePool struct {
	lake *Lake
	jobs chan decodeJob
	done chan struct{}
	wg   sync.WaitGroup
	// readers are borrowed from the lake by the streams; close returns them.
	readers []*blockReader
}

func newDecodePool(l *Lake, workers, queue int) *decodePool {
	p := &decodePool{
		lake: l,
		jobs: make(chan decodeJob, queue),
		done: make(chan struct{}),
	}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
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
	close(p.done)
	p.wg.Wait()
	p.lake.putReader(p.readers...)
}

// stream starts delivering the blocks of metas in list order, decoding
// up to depth of them ahead of the consumer.
func (p *decodePool) stream(metas []int, depth int) *blockStream {
	depth = min(depth, len(metas))
	s := &blockStream{
		metas: metas,
		free:  make(chan *blockReader, depth),
		ring:  make([]streamSlot, depth),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < depth; i++ {
		br := p.lake.getReader()
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
	metas []int
	free  chan *blockReader

	mu   sync.Mutex
	cond *sync.Cond
	ring []streamSlot // the slot for position p is ring[p%len(ring)]
	next int          // next position take returns
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

// take blocks until the next position has been decoded and returns it.
// The Rows alias the returned reader's buffers: recycle the reader only
// after the rows have been consumed.
func (s *blockStream) take() (*Rows, *blockReader, error) {
	s.mu.Lock()
	slot := &s.ring[s.next%len(s.ring)]
	for !slot.filled {
		s.cond.Wait()
	}
	rows, br, err := slot.rows, slot.br, slot.err
	*slot = streamSlot{}
	s.next++
	s.mu.Unlock()
	return rows, br, err
}

// recycle returns a consumed block's reader to the free list, letting
// the feeder assign it the next position. Never blocks (the list's
// capacity is the reader count).
func (s *blockStream) recycle(br *blockReader) {
	s.free <- br
}

// consume runs the blocks of metas through the pool and hands each to
// visit, in metas order.
func (p *decodePool) consume(metas []int, depth int, visit func(*Rows) error) error {
	s := p.stream(metas, depth)
	var held *blockReader
	for range metas {
		if held != nil {
			s.recycle(held)
			held = nil
		}
		rows, br, err := s.take()
		held = br
		if err != nil {
			return err
		}
		if err := visit(rows); err != nil {
			return err
		}
	}
	return nil
}
