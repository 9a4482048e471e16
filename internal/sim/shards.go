package sim

import (
	"fmt"
	"math"

	"optsync/internal/probe"
)

// This file implements the conservative parallel tier of the engine: a
// Shards coordinator that partitions a simulation's lanes (nodes) across
// k worker goroutines, each owning a full Engine.
//
// Parallelism is classic conservative PDES with the network's minimum
// delivery delay L as the lookahead: a message sent at t arrives no
// earlier than t+L, so the events of a window [W, W+L) are causally
// independent across shards. Workers drain their own queues inside the
// window, buffering cross-shard sends into per-pair mailboxes (owned by
// the network layer), which the coordinator exchanges at a barrier
// between windows. No rollback is ever needed.
//
// Determinism: a k-shard run must be bit-identical to the serial engine —
// same results, stats and probe traces. Three mechanisms deliver that:
//
//  1. The event Key (key.go) is computable by the scheduling shard alone
//     yet totally orders all events exactly as the serial engine executes
//     them; each worker drains strictly below a per-window key bound.
//  2. Events on LaneGlobal (skew samplers, partition markers — anything
//     reading cross-shard state) live on a separate global engine and run
//     single-threaded at barriers; the window bound clamps to the next
//     global event's key so shard events before/after it in key order
//     really execute before/after it.
//  3. Observations made inside a window (probe events, pulses) are
//     buffered per shard, tagged with (executing event key, emission
//     index), and k-way merged into the real bus at the barrier — the
//     merged stream is byte-identical to serial emission order.
//
// The workers persist for the life of the coordinator and park on
// channels between windows: a steady-state window costs 2k channel
// operations and no allocation.
//
// k = 1 is the serial engine: one Engine, both Global and Shard(0), with no
// worker, recorder, mailbox, barrier or lookahead, drained by runBefore.
type Shards struct {
	k         int
	lookahead Time
	global    *Engine
	engs      []*Engine
	recs      []*shardRecorder
	barriers  []func()

	startCh []chan Key
	doneCh  chan struct{}
	closed  bool

	mirrored []bool // probe types already mirrored onto shard buses
	mergePos []int  // scratch for the k-way observation merge
}

// NewShards builds a conservative parallel coordinator with k shard
// engines plus one global engine, all seeded identically (derived random
// streams depend on (seed, id) alone, so every engine can answer for any
// entity). lookahead is the network's minimum delivery delay: the width
// of the safe window. Above k = 1 it must be positive — a zero-lookahead
// model has no safe window and must run on one shard.
func NewShards(seed int64, k int, lookahead Time) *Shards {
	if k < 1 {
		panic(fmt.Sprintf("sim: NewShards k=%d", k))
	}
	if k == 1 {
		e := New(seed)
		e.ladder.takeKit()
		return &Shards{k: 1, global: e, engs: []*Engine{e}}
	}
	if !(lookahead > 0) { // rejects zero, negatives, and NaN
		panic(fmt.Sprintf("sim: NewShards lookahead=%v (need > 0)", lookahead))
	}
	s := &Shards{
		k:         k,
		lookahead: lookahead,
		global:    New(seed),
		startCh:   make([]chan Key, k),
		doneCh:    make(chan struct{}, k),
		mirrored:  make([]bool, len(probe.AllTypes())+1),
		mergePos:  make([]int, k),
	}
	for i := 0; i < k; i++ {
		e := New(seed)
		e.ladder.takeKit()
		s.engs = append(s.engs, e)
		s.recs = append(s.recs, &shardRecorder{eng: e})
		s.startCh[i] = make(chan Key, 1)
	}
	// Last, as Close pushes the global engine's kit first: a global engine
	// that held no chunk pushes none, and must not pop a shard's.
	s.global.ladder.takeKit()
	for i := 0; i < k; i++ {
		go s.worker(i)
	}
	return s
}

// K returns the shard count.
func (s *Shards) K() int { return s.k }

// Global returns the coordinator's global engine: the home of LaneGlobal
// timers and of the run's real probe bus. Its clock is the simulation
// frontier.
func (s *Shards) Global() *Engine { return s.global }

// Shard returns shard i's engine. Outside Run, the caller owns it (build
// and boot single-threaded); during Run only its worker touches it.
func (s *Shards) Shard(i int) *Engine { return s.engs[i] }

// OnBarrier registers fn to run at every window barrier, after workers
// have parked and observations merged. The network layer registers its
// mailbox exchange here. Hooks run on the coordinator goroutine, strictly
// ordered with the workers (channel synchronization), so they may touch
// every shard's state.
func (s *Shards) OnBarrier(fn func()) {
	s.barriers = append(s.barriers, fn)
}

// worker is one shard's drain loop: park, drain the window, report.
func (s *Shards) worker(i int) {
	e := s.engs[i]
	for bound := range s.startCh[i] {
		e.runBefore(bound)
		s.doneCh <- struct{}{}
	}
}

// mirror subscribes each shard's recorder to every probe type active on
// the real bus, so the Bus.Active guards across network/node code behave
// identically on every shard — and identically to a serial run.
func (s *Shards) mirror() {
	for _, t := range probe.AllTypes() {
		if !s.mirrored[t] && s.global.probes.Active(t) {
			s.mirrored[t] = true
			for i := range s.engs {
				s.engs[i].probes.Attach(s.recs[i], t)
			}
		}
	}
}

// Run executes events until every queue is drained past until, then
// advances all clocks to until — the sharded equivalent of Engine.Run.
// It may be called repeatedly with increasing horizons.
func (s *Shards) Run(until Time) {
	s.run(until)
	for _, e := range s.engs {
		e.advanceTo(until)
	}
	s.global.advanceTo(until)
}

// Drain executes until no pending events remain anywhere, leaving each
// clock at its last window's frontier (at k = 1, its last event), not +Inf.
func (s *Shards) Drain() { s.run(math.Inf(1)) }

func (s *Shards) run(until Time) {
	if s.closed {
		panic("sim: Shards.Run after Close")
	}
	if s.k == 1 {
		s.global.runBefore(keyAfter(until))
		return
	}
	s.mirror()
	for {
		// Frontier: the earliest pending instant anywhere. Jumping the
		// window start to it skips empty windows entirely, so sparse
		// schedules don't pay one barrier per lookahead-width of idle
		// virtual time.
		next := math.Inf(1)
		for _, e := range s.engs {
			if ev := e.ladder.peek(); ev != nil && ev.key.At < next {
				next = ev.key.At
			}
		}
		g := s.global.ladder.peek()
		if g != nil && g.key.At < next {
			next = g.key.At
		}
		if next > until || math.IsInf(next, 1) {
			break
		}
		// Window [next, next+L): safe because nothing sent inside it can
		// arrive before its end. The bound is exclusive at next+L (a
		// minimum-delay message sent at the window start lands exactly
		// there and belongs to the next window); the final partial window
		// [next, until] is inclusive, mirroring Engine.Run's at <= until.
		var bound Key
		if wEnd := next + s.lookahead; wEnd <= until {
			bound = keyBefore(wEnd)
		} else {
			bound = keyAfter(until)
		}
		runGlobal := g != nil && g.key.Less(bound)
		if runGlobal {
			// A global event splits the window: shards drain strictly
			// below its key, then it runs alone at the barrier, seeing
			// exactly the cross-shard state a serial run would.
			bound = g.key
		}
		for i := range s.startCh {
			s.startCh[i] <- bound
		}
		for range s.engs {
			<-s.doneCh
		}
		frontier := bound.At
		if frontier > until {
			frontier = until
		}
		for _, e := range s.engs {
			e.advanceTo(frontier)
		}
		s.flushObservations()
		for _, fn := range s.barriers {
			fn()
		}
		if runGlobal {
			s.global.Step()
		} else {
			s.global.advanceTo(frontier)
		}
	}
}

// flushObservations k-way merges the shards' buffered probe events into
// the real bus in (key, emission) order — the exact order a serial run
// emits them. Buffers are reused; a steady-state merge allocates nothing.
func (s *Shards) flushObservations() {
	any := false
	for i, r := range s.recs {
		s.mergePos[i] = 0
		if len(r.buf) > 0 {
			any = true
		}
	}
	if !any {
		return
	}
	bus := &s.global.probes
	for {
		best := -1
		var bestTag obsTag
		for i, r := range s.recs {
			j := s.mergePos[i]
			if j >= len(r.buf) {
				continue
			}
			if best < 0 || r.buf[j].tag.less(bestTag) {
				best, bestTag = i, r.buf[j].tag
			}
		}
		if best < 0 {
			break
		}
		//syncsim:allowlist probeguard merge drains events the shard recorders already buffered; buffers are empty unless probes were attached, so the unobserved run never reaches this loop
		bus.Emit(s.recs[best].buf[s.mergePos[best]].ev)
		s.mergePos[best]++
	}
	for _, r := range s.recs {
		r.buf = r.buf[:0]
	}
}

// Close parks and releases the worker goroutines, then releases every
// engine's queue: its chunks go to the next run, and its pending events are
// discarded. The coordinator cannot run afterwards; engines' stats and
// clocks stay readable.
func (s *Shards) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.startCh {
		close(ch)
	}
	s.global.ladder.recycle()
	for _, e := range s.engs {
		e.ladder.recycle()
	}
}

// obsTag orders one buffered observation: the key of the event that was
// executing plus the emission index within it.
type obsTag struct {
	key Key
	seq uint32
}

func (t obsTag) less(o obsTag) bool {
	if t.key != o.key {
		return t.key.Less(o.key)
	}
	return t.seq < o.seq
}

// taggedEvent is one buffered probe event awaiting the barrier merge.
type taggedEvent struct {
	tag obsTag
	ev  probe.Event
}

// shardRecorder buffers every probe event a shard's window produces,
// tagged for the deterministic merge. It is attached to the shard
// engine's bus for exactly the types the real bus subscribes.
type shardRecorder struct {
	eng *Engine
	buf []taggedEvent
}

var _ probe.Probe = (*shardRecorder)(nil)

// OnEvent implements probe.Probe.
func (r *shardRecorder) OnEvent(ev probe.Event) {
	k, seq := r.eng.ExecTag()
	r.buf = append(r.buf, taggedEvent{tag: obsTag{key: k, seq: seq}, ev: ev})
}
