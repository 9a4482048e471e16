package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// TestMsgEventIs48Bytes pins the queued event's size: a chunk is ladderChunk
// of them, and every byte here is paid once per message in flight. A field
// added to Message or msgEvent has to argue against this number.
func TestMsgEventIs48Bytes(t *testing.T) {
	if got := unsafe.Sizeof(msgEvent{}); got != 48 {
		t.Fatalf("msgEvent is %d bytes, want 48 (Key 24, Message 20, target 4)", got)
	}
	if got := unsafe.Sizeof(Message{}); got != 20 {
		t.Fatalf("Message is %d bytes, want 20", got)
	}
}

// --- Reference implementation ---
//
// refQueue is the executable specification of the engine's event order: a
// flat slice scanned for the (time, seq) minimum on every pop. It is
// O(n) per operation and obviously correct; the ladder+heap engine must
// reproduce its execution order bit-identically.

type refItem struct {
	at       Time
	seq      uint64
	id       int
	canceled bool
}

type refQueue struct {
	items []refItem
	seq   uint64
}

func (q *refQueue) push(at Time, id int) uint64 {
	s := q.seq
	q.seq++
	q.items = append(q.items, refItem{at: at, seq: s, id: id})
	return s
}

func (q *refQueue) cancel(seq uint64) {
	for i := range q.items {
		if q.items[i].seq == seq {
			q.items[i].canceled = true
		}
	}
}

func (q *refQueue) pop() (refItem, bool) {
	best := -1
	for i := range q.items {
		if q.items[i].canceled {
			continue
		}
		if best < 0 || q.items[i].at < q.items[best].at ||
			(q.items[i].at == q.items[best].at && q.items[i].seq < q.items[best].seq) {
			best = i
		}
	}
	if best < 0 {
		q.items = q.items[:0]
		return refItem{}, false
	}
	it := q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	return it, true
}

// ladderProgram is one randomized schedule driven identically through the
// real engine and the reference queue. Times are drawn from a mix of
// regimes chosen to hit every ladder tier and transition:
//
//   - dense near-future offsets (rung-0 buckets, spill to rung 1)
//   - exact duplicates and zero offsets (equal-timestamp FIFO)
//   - bucket-boundary multiples of the default width (locate edges)
//   - far-future offsets (far list, re-anchor, width re-tune)
//
// A fraction of events are timers (some canceled, leaving tombstones), the
// rest message events, so the two interleave at every instant; fired events schedule follow-ups with the same time
// distribution, so insertion behind the drain point (sorted-bottom
// insort, rung-1 late routing) happens constantly.
func ladderProgram(t *testing.T, seed int64, initial, spawn int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))

	e := New(seed)
	ref := &refQueue{}
	var engineOrder []int
	var engineTimes []Time

	delta := func() Time {
		switch rng.Intn(10) {
		case 0:
			return 0 // same instant
		case 1:
			return Time(rng.Intn(4)) * ladderDefaultWidth // exact bucket boundaries
		case 2:
			return 200e-3 + rng.Float64() // near/far threshold and beyond
		case 3:
			return 10 + rng.Float64()*100 // deep far list
		default:
			return rng.Float64() * 12e-3 // dense LAN-style offsets
		}
	}

	target := e.RegisterDispatcher(&funcDispatcher{})
	nextID := 0
	budget := spawn

	var schedule func(base Time, n int)
	schedule = func(base Time, n int) {
		for k := 0; k < n; k++ {
			id := nextID
			nextID++
			at := base + delta()
			if rng.Intn(3) == 0 { // timer
				seq := ref.push(at, id)
				ev := e.MustAt(at, func() {
					engineOrder = append(engineOrder, id)
					engineTimes = append(engineTimes, e.Now())
					if budget > 0 && rng.Intn(4) == 0 {
						budget--
						schedule(e.Now(), 1)
					}
				})
				if rng.Intn(8) == 0 { // cancel some timers immediately
					e.Cancel(ev)
					ref.cancel(seq)
				}
			} else { // message event
				ref.push(at, id)
				e.MustAtMsg(at, target, Message{Index: uint32(id)})
			}
		}
	}
	// The dispatcher needs access to the closure state; install it now.
	e.dispatchers[target] = &funcDispatcher{fn: func(now Time, m Message) {
		engineOrder = append(engineOrder, int(m.Index))
		engineTimes = append(engineTimes, now)
		if budget > 0 && rng.Intn(4) == 0 {
			budget--
			schedule(now, 1)
		}
	}}

	schedule(0, initial)

	// Drain through horizon-bounded Run calls plus a final RunAll so the
	// Run(until) boundary logic is part of the property.
	e.Run(6e-3)
	e.Run(6e-3) // idempotent horizon re-run
	e.RunAll(3)
	e.RunAll(0)

	requireReferenceOrder(t, seed, engineOrder, ref)
	for i := 1; i < len(engineTimes); i++ {
		if engineTimes[i] < engineTimes[i-1] {
			t.Fatalf("seed %d: time ran backwards at %d: %v -> %v", seed, i, engineTimes[i-1], engineTimes[i])
		}
	}
}

// requireReferenceOrder drains the reference queue — follow-ups are already
// in it, the engine-side callbacks pushed them — and requires the engine to
// have fired the same events in the same order.
func requireReferenceOrder(t *testing.T, seed int64, engineOrder []int, ref *refQueue) {
	t.Helper()
	var refOrder []int
	for {
		it, ok := ref.pop()
		if !ok {
			break
		}
		refOrder = append(refOrder, it.id)
	}
	if len(engineOrder) != len(refOrder) {
		t.Fatalf("seed %d: engine fired %d events, reference %d", seed, len(engineOrder), len(refOrder))
	}
	for i := range refOrder {
		if engineOrder[i] != refOrder[i] {
			t.Fatalf("seed %d: order diverges at %d: engine %v... reference %v...",
				seed, i, engineOrder[max(0, i-3):min(len(engineOrder), i+3)],
				refOrder[max(0, i-3):min(len(refOrder), i+3)])
		}
	}
}

// sealedAheadProgram is the schedule of a round start: a few message events
// 2 ms out, then hundreds of timers, each pushing a burst into that
// millisecond. Even seeds put the timers inside it, so the run loop's first
// look seals them with the messages while the clock is still at 0, and the
// bursts un-seal the bottom part drained. Odd seeds spread the timers over
// [0, 3 ms), before and inside the span. Either way the execution order
// must be the reference queue's.
func sealedAheadProgram(t *testing.T, seed int64, timers, burst int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	e := New(seed)
	ref := &refQueue{}
	var engineOrder []int
	nextID := 0
	target := e.RegisterDispatcher(&funcDispatcher{fn: func(_ Time, m Message) {
		engineOrder = append(engineOrder, int(m.Index))
	}})
	msg := func(at Time) {
		ref.push(at, nextID)
		e.MustAtMsg(at, target, Message{Index: uint32(nextID)})
		nextID++
	}
	const spanLo, spanHi = 2 * ladderDefaultWidth, 3 * ladderDefaultWidth
	for i := 0; i < 5; i++ {
		msg(spanLo + rng.Float64()*ladderDefaultWidth)
	}
	for i := 0; i < timers; i++ {
		id := nextID
		nextID++
		at := rng.Float64() * spanHi
		if seed%2 == 0 {
			at = spanLo + rng.Float64()*ladderDefaultWidth
		}
		ref.push(at, id)
		e.MustAt(at, func() {
			engineOrder = append(engineOrder, id)
			for k := 0; k < burst; k++ {
				lo := max(e.Now(), spanLo)
				switch rng.Intn(8) {
				case 0:
					msg(lo) // the earliest instant still open: the bottom's head
				case 1:
					msg(e.Now() + rng.Float64()*spanLo) // this bucket, or a later one
				default:
					msg(lo + rng.Float64()*(spanHi-lo))
				}
			}
		})
	}
	e.Run(0) // looks ahead: seals the span's bucket 2 ms before its time
	e.RunAll(0)
	if seed%2 == 0 && e.LadderStats().Unseals == 0 {
		t.Fatalf("seed %d: fixture never un-sealed a bucket sealed ahead of the clock", seed)
	}
	requireReferenceOrder(t, seed, engineOrder, ref)
}

// TestLadderMatchesReferenceQueue drives random schedules through the
// engine and a brute-force reference queue: the execution order — across
// timers and message events, equal timestamps, cancels,
// spills, far-list re-anchors, horizon boundaries, and buckets sealed ahead
// of the clock and un-sealed again — must match event for event.
func TestLadderMatchesReferenceQueue(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		ladderProgram(t, seed, 60, 120)
	}
	// One larger schedule to force multi-bucket spills.
	ladderProgram(t, 4242, 600, 400)
	for seed := int64(1); seed <= 6; seed++ {
		sealedAheadProgram(t, seed, 100+50*int(seed), 12)
	}
}

// ladderProgram's reference follow-up scheduling rides the engine
// callbacks, so both sides see the identical schedule by construction.
// A second property pins the bare ladder (no engine): random message
// schedules must drain in nondecreasing (time, seq) order with nothing
// lost, including when every event shares one instant.
func TestLadderDrainOrderProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var l ladder
		n := 1 + rng.Intn(2000)
		sameAt := rng.Intn(3) == 0
		for i := 0; i < n; i++ {
			at := rng.Float64() * math.Pow(10, float64(rng.Intn(6))-3)
			if sameAt {
				at = 1.5
			}
			l.push(0, msgEvent{key: Key{At: at, Seq: uint32(i)}, msg: Message{Index: uint32(i)}})
		}
		var prev msgEvent
		for k := 0; k < n; k++ {
			ev := l.peek()
			if ev == nil {
				t.Fatalf("seed %d: ladder empty after %d of %d", seed, k, n)
			}
			got := *l.pop()
			if got.key != ev.key {
				t.Fatalf("seed %d: pop returned %+v, peek said key %+v", seed, got, ev)
			}
			if k > 0 && got.key.Less(prev.key) {
				t.Fatalf("seed %d: order violation at %d: %+v after %+v", seed, k, got, prev)
			}
			prev = got
		}
		if l.peek() != nil || l.count != 0 {
			t.Fatalf("seed %d: ladder not empty after full drain", seed)
		}
	}
}

// sealedAheadBurst drives the pure ladder through the sealed-ahead shape:
// a few events 2 ms out, a peek that seals their bucket, then n events
// pushed into that span in bursts, one event popped after each burst, and a
// full drain. Every push is keyed after the last pop, as the engine
// guarantees. It returns the drain order and what a sort of the same events
// gives.
func sealedAheadBurst(rng *rand.Rand, l *ladder, n, burst int) (got, want []msgEvent) {
	var last Key
	seq := uint32(0)
	push := func(at Time) {
		ev := msgEvent{key: Key{At: at, Cause: last.At, Seq: seq}, msg: Message{Index: seq}}
		seq++
		want = append(want, ev)
		l.push(last.At, ev)
	}
	for i := 0; i < 5; i++ {
		push(2*ladderDefaultWidth + rng.Float64()*ladderDefaultWidth)
	}
	l.peek()
	for int(seq) < n {
		lo := max(last.At, 2*ladderDefaultWidth)
		for k := 0; k < burst; k++ {
			push(lo + rng.Float64()*(3*ladderDefaultWidth-lo))
		}
		l.peek()
		ev := *l.pop()
		got, last = append(got, ev), ev.key
	}
	for l.count > 0 {
		l.peek()
		got = append(got, *l.pop())
	}
	sort.Slice(want, func(i, j int) bool { return want[i].key.Less(want[j].key) })
	return got, want
}

// TestLadderSealedAheadDrainOrder is the drain-order property on the
// sealed-ahead shape, for bursts below and above the un-seal threshold.
func TestLadderSealedAheadDrainOrder(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		var l ladder
		rng := rand.New(rand.NewSource(seed))
		got, want := sealedAheadBurst(rng, &l, 500+rng.Intn(4000), 1+rng.Intn(300))
		if len(got) != len(want) {
			t.Fatalf("seed %d: drained %d of %d events", seed, len(got), len(want))
		}
		for i := range want {
			if got[i].key != want[i].key {
				t.Fatalf("seed %d: drain position %d holds %+v, sorted order has %+v", seed, i, got[i].key, want[i].key)
			}
		}
		if l.peek() != nil {
			t.Fatalf("seed %d: ladder not empty after full drain", seed)
		}
	}
}

// TestLadderSealedAheadIsLinear bounds what late arrivals into a bucket
// sealed ahead of the clock cost: the events insortBottom shifts are
// proportional to the events pushed, not to events x unconsumed bottom (on
// this schedule a bottom that is never un-sealed shifts ~n^2/4, 2.5e9).
func TestLadderSealedAheadIsLinear(t *testing.T) {
	const n = 100_000
	var l ladder
	got, _ := sealedAheadBurst(rand.New(rand.NewSource(1)), &l, n, 100)
	if len(got) < n {
		t.Fatalf("drained %d of %d events", len(got), n)
	}
	if l.stats.Shifted > n {
		t.Fatalf("%d late arrivals shifted %d events in the sorted bottom, want at most %d", n, l.stats.Shifted, n)
	}
}

// TestLadderReleasesBurstMemory asserts the quiescent-sweep cap: after a
// burst far larger than ladderTrimCap drains and a small steady workload
// follows, the burst's bucket capacity is released instead of pinned for
// the rest of the run.
func TestLadderReleasesBurstMemory(t *testing.T) {
	e := New(1)
	target := e.RegisterDispatcher(&funcDispatcher{fn: func(Time, Message) {}})

	// Burst: everything lands in one rung-0 bucket, forcing a giant
	// bucket, a giant spill buffer, and a giant far list.
	const burst = 10 * ladderTrimCap
	for i := 0; i < burst; i++ {
		e.MustAtMsg(e.Now()+1e-4*Time(i%7)/7, target, Message{Index: uint32(i)})
		e.MustAtMsg(e.Now()+100+Time(i%5), target, Message{Index: uint32(i)}) // far tier
	}
	e.RunAll(0)

	peak := ladderRetained(&e.ladder)
	if peak <= ladderTrimCap {
		t.Fatalf("burst retained only %d slots; fixture too small to test the cap", peak)
	}

	// Steady small workload: a few events per quiescent cycle.
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			e.MustAtMsg(e.Now()+1e-3*Time(i), target, Message{Index: uint32(i)})
		}
		e.RunAll(0)
	}

	after := ladderRetained(&e.ladder)
	if after > ladderTrimCap {
		t.Fatalf("ladder retains %d event slots after the burst drained (cap %d, peak %d)",
			after, ladderTrimCap, peak)
	}
}

// TestReanchorSweepKeepsLiveEvents is the regression test for a trim bug:
// reanchor() redistributes the far list into rung-0 buckets and then runs
// the trim sweep, so a bucket retaining a huge cap from an old burst can
// be both oversized and freshly refilled — the sweep must never release a
// non-empty bucket (it used to, silently losing the events and then
// panicking in the next reanchor on the desynced count).
func TestReanchorSweepKeepsLiveEvents(t *testing.T) {
	e := New(1)
	delivered := 0
	var target int
	target = e.RegisterDispatcher(&funcDispatcher{fn: func(Time, Message) { delivered++ }})

	const burst = 20000
	total := 0
	// 1. Burst into one rung-0 bucket: retained cap ~burst > ladderTrimCap.
	for i := 0; i < burst; i++ {
		e.MustAtMsg(0.0001+Time(i%10)*1e-5, target, Message{Index: uint32(i)})
		total++
	}
	// Sentinels keep the ladder non-empty across both re-anchors (no
	// pristine reset, so the big bucket's capacity is retained).
	e.MustAtMsg(500, target, Message{})
	e.MustAtMsg(1000, target, Message{})
	total += 2
	// 2. Drain the burst; the next peek re-anchors onto {500, 1000} and
	// sweeps with maxLen ~ burst (floor high: nothing trimmed).
	e.Run(600)
	// 3. Small far batch beyond the re-anchored window.
	for i := 0; i < 64; i++ {
		e.MustAtMsg(2000+Time(i), target, Message{Index: uint32(i)})
		total++
	}
	// 4. Draining past 1000 exhausts the window: the second reanchor
	// redistributes the batch into the big-cap bucket and sweeps with a
	// small maxLen — the oversized bucket now holds live events.
	e.RunAll(0)
	if delivered != total {
		t.Fatalf("delivered %d of %d events (trim sweep dropped live events)", delivered, total)
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending() = %d after full drain", e.Pending())
	}
}

// ladderRetained sums the event capacity the ladder holds: every chunk it
// owns, its own buffer, and the first arrays buckets keep for themselves.
func ladderRetained(l *ladder) int {
	total := (l.nfree+l.live)*ladderChunk + cap(l.own) + cap(l.bottom)
	if l.far.head == nil {
		total += cap(l.far.tail)
	}
	for _, r := range []*rung{&l.r0, l.r1} {
		for i := 0; r != nil && i < ladderBuckets; i++ {
			if b := &r.buckets[i]; b.head == nil {
				total += cap(b.tail)
			}
		}
	}
	return total
}

// TestAfterRejectsNonFiniteDelay is the regression test for the
// Engine.After validation: NaN and infinite delays must surface as
// errors (previously they were forwarded into MustAt and panicked).
func TestAfterRejectsNonFiniteDelay(t *testing.T) {
	e := New(1)
	for _, d := range []Time{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := e.After(d, func() {}); err == nil {
			t.Fatalf("After(%v) did not return an error", d)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("rejected delays left %d events queued", e.Pending())
	}
	// MustAfter panics on the same inputs (the validated-caller contract).
	defer func() {
		if recover() == nil {
			t.Fatal("MustAfter(NaN) did not panic")
		}
	}()
	e.MustAfter(math.NaN(), func() {})
}

// TestKitsPairWithTheirEngines: the kits a Close pushes go, at the next
// NewShards of the same shape, to engines of the same role. A global
// engine that held no chunk pushes no kit, so it must not pop one of the
// shards' either.
func TestKitsPairWithTheirEngines(t *testing.T) {
	saved := kits.stack
	kits.stack = nil
	t.Cleanup(func() { kits.stack = saved })
	s := NewShards(1, 2, 0.001)
	for i := 0; i < 2; i++ {
		e := s.Shard(i)
		to := e.RegisterDispatcher(&recorder{})
		for j := 0; j < 4*ladderChunk; j++ {
			e.MustAtMsg(0.002+0.001*Time(j%7), to, Message{Index: uint32(j)})
		}
	}
	s.Close()
	if len(kits.stack) != 2 {
		t.Fatalf("Close pushed %d kits, want one per shard engine", len(kits.stack))
	}
	s = NewShards(1, 2, 0.001)
	defer s.Close()
	for i := 0; i < 2; i++ {
		if s.Shard(i).ladder.kit == nil {
			t.Errorf("shard %d took no kit", i)
		}
	}
	if s.Global().ladder.kit != nil {
		t.Error("the global engine took a shard's kit")
	}
}

// TestReleasedLadderKeepsNoChunk: release hands every chunk a ladder holds,
// those of events still queued too, to the next ladder, and keeps none, so
// the released engine, used again, draws storage of its own. Engine a is
// released mid-burst and its chunks handed to b; then a, b and c take
// bursts and drain in turns. b must deliver exactly what c, the same
// schedule on an engine with no kit, delivers, with c's counters but
// Recycled, and a only what it was given after the release.
func TestReleasedLadderKeepsNoChunk(t *testing.T) {
	type run struct {
		e   *Engine
		rec *recorder
		to  int
	}
	start := func(seed int64) *run {
		r := &run{e: New(seed), rec: &recorder{}}
		r.to = r.e.RegisterDispatcher(r.rec)
		return r
	}
	// burst queues n messages over the next [2 ms, 10 ms), tagged in From.
	burst := func(r *run, tag int32, n int) {
		rng := rand.New(rand.NewSource(int64(tag)))
		for i := 0; i < n; i++ {
			r.e.MustAtMsg(r.e.Now()+0.002+0.008*rng.Float64(), r.to, Message{From: tag, Index: uint32(i)})
		}
	}
	a := start(1)
	burst(a, 1, 4000)
	a.e.Run(0.006)
	held, stats := a.e.ladder.live+a.e.ladder.nfree, a.e.LadderStats()
	if a.e.ladder.live == 0 {
		t.Fatal("the burst left no chunk live")
	}
	kit := a.e.ladder.release()
	n := 0
	for c := kit; c != nil; c = c.next {
		n++
	}
	if n != held || a.e.Pending() != 0 || a.e.LadderStats() != stats {
		t.Fatalf("release returned %d of %d chunks, left %d events pending, counters %+v (were %+v)",
			n, held, a.e.Pending(), a.e.LadderStats(), stats)
	}
	if kept := ladderRetained(&a.e.ladder); kept != 0 || a.e.ladder.free != nil {
		t.Fatalf("the released ladder keeps %d event slots (free list %p)", kept, a.e.ladder.free)
	}
	b, c := start(2), start(2)
	b.e.ladder.kit = kit
	before := len(a.rec.msgs)
	for round := int32(0); round < 3; round++ {
		burst(a, 10+round, 3000)
		for _, r := range []*run{a, b, c} {
			if r != a {
				burst(r, 20+round, 3000)
			}
			r.e.Run(r.e.Now() + 0.005)
		}
	}
	for _, r := range []*run{a, b, c} {
		r.e.RunAll(0)
	}
	bs, cs := b.e.LadderStats(), c.e.LadderStats()
	t.Logf("kit of %d chunks; b: %+v", n, bs)
	if bs.Recycled == 0 || bs.Recycled > uint64(n) {
		t.Errorf("b drew %d recycled chunks from a kit of %d", bs.Recycled, n)
	}
	if bs.Recycled = 0; bs != cs || !slices.Equal(b.rec.at, c.rec.at) || !slices.Equal(b.rec.msgs, c.rec.msgs) {
		t.Errorf("b on a's chunks delivered %d events with counters %+v, c %d with %+v",
			len(b.rec.msgs), bs, len(c.rec.msgs), cs)
	}
	after := a.rec.msgs[before:]
	if len(after) != 3*3000 || slices.ContainsFunc(after, func(m Message) bool { return m.From < 10 }) ||
		!slices.IsSorted(a.rec.at[before:]) {
		t.Errorf("a delivered %d events after its release, want its 9000 later ones in time order", len(after))
	}
}
