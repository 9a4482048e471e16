package sim

import (
	"math"
	"slices"
	"sync"
)

// This file implements the event queue: a two-level ladder/calendar queue
// of value-inline events, message deliveries and timers alike.
//
// Motivation: a heap of pointers pays two O(log k) pointer-chasing moves per
// event and is memory the GC must trace. A ladder appends a plain value to
// a time-indexed bucket and drains by sorting one small bucket at a time.
//
// Structure. Rung 0 covers [base, base+256*width) with 256 equal buckets;
// later events go to the far bucket. The next non-empty bucket is sealed —
// put in Key order as `bottom` — and consumed in order. A bucket of over
// ladderSpillMin messages is first spilled into rung 1, 256 buckets over
// just that bucket's width, each sealed however large (two levels only).
// When rung 0 runs out, the ladder re-anchors at the earliest far event,
// re-tuning the width to the far messages' span.
//
// Timers. A timer is an event for the reserved timerTarget naming a slot of
// the engine's timer slab (sim.go); cancelling it moves the slot's
// generation on, leaving a tombstone that peek discards at the head. Timers
// are few and far apart and must not shape the queue: the width re-tunes on
// message bounds, spills count messages, and the sweep runs when the last
// message leaves. As queued timers keep the ladder from ever emptying, two
// re-anchors stand in for an empty ladder anchoring at its next push: a
// message arriving while only timers are queued re-anchors the window at
// its instant, so each round's burst lands at the same offsets; and one
// over a timers-only far bucket anchors at the earliest timer and keeps the
// width. Either returns what lies beyond the new window to far. A future
// timer pushed onto an empty ladder is sealed as the bottom at once.
//
// Capacity belongs to the ladder, not to a bucket index: a bucket is
// unordered until sealed, so it is a list of ladderChunk-event chunks from
// one free list, which sweep trims at quiescent points. A bucket's first
// array doubles up to one chunk; drained, it goes to a stack of spares the
// next empty bucket takes, so small buckets (a campaign cell) never build a
// pool and timers all over the window allocate nothing. A bucket sealed at
// several chunks is gathered into the ladder's contiguous buffer `own`,
// which also takes over a bottom that late arrivals outgrow.
//
// Chunks outlive the run. A run stopped at its horizon leaves most of its
// chunks holding events no one will read, and the next run's engine is a
// new one. So release (Shards.Close) hands every chunk, live or free, as
// one kit to a process-wide sync.Pool; a shard engine takes a kit there
// when it is built, and its ladder draws from the kit whenever its free
// list is empty, before it allocates. The kit is not merged into the free
// list, which would change where grow puts chunks; first arrays are not
// recycled, as their capacity decides the grow-copies. One Get and one Put
// per engine, both outside the event path; a GC empties the pool, but not
// the kit an engine holds.
//
// Ordering. The global order is the locally-computable event Key (see
// key.go), restored lazily: buckets are unsorted until sealed, and events
// arriving behind the drain point are inserted into the sorted bottom by
// binary search — pinned against a brute-force queue by
// TestLadderMatchesReferenceQueue and FuzzLadderMatchesReferenceQueue.
//
// Sealing. Up to ladderBinMin events sort by insertion; one array of more is
// first scattered over bins of equal instant width (distribute); a bucket of
// several chunks takes a comparison sort.
//
// Sealing ahead of the clock. A sealed bucket may span milliseconds; what
// the timers sealed with it send into that span are late arrivals. Hence
// the un-seal rule: a push that finds a rung-0 bottom with ladderSpillMin
// or more unconsumed events scatters them across rung 1, making this and
// every later arrival a rung-1 append.

const (
	// ladderBuckets is the bucket count per rung.
	ladderBuckets = 256
	// ladderSpillMin is the message count above which a rung-0 bucket is
	// spilled into rung 1 instead of sorted directly.
	ladderSpillMin = 128
	// ladderChunk is the event capacity of one pooled chunk (6 KB).
	ladderChunk = ladderSpillMin
	// ladderFirstCap is the capacity a bucket's first array opens at.
	ladderFirstCap = 8
	// ladderBinMin is the bucket size up to which seal sorts by straight
	// insertion alone; one array of more is distributed over bins first.
	// Timed on the buckets of three bench workloads, insertion is the
	// cheaper per event up to 12–16 events, distribution from 17 on.
	ladderBinMin = 16
	// ladderDefaultWidth is the initial rung-0 bucket width in seconds
	// (LAN-scale delivery delays land a handful of buckets apart).
	ladderDefaultWidth = 1e-3
	// ladderMinWidth floors the re-tuned width so locate() never
	// divides by a denormal.
	ladderMinWidth = 1e-12
	// ladderTrimCap is the capacity (in events) the free list and the
	// gather buffer may always keep; sweep releases what exceeds it and
	// four times the recent peak (see TestLadderReleasesBurstMemory).
	ladderTrimCap = 8192
)

// distribute counts one array's events per bin in uint8: a chunk must not
// hold more than 255.
const _ uint8 = ladderChunk

// msgEvent is one scheduled event: a plain value, 48 bytes (a 24-byte Key,
// a 20-byte Message, the target), no pointers, so a window of pending
// events is a set of 6 KB arrays the GC skips entirely.
type msgEvent struct {
	key    Key
	msg    Message
	target int32
}

// timerTarget is the reserved target of a timer event: msg.Index is its
// slab slot and msg.Round the slot's generation when it was armed.
const timerTarget int32 = -1

// chunk is one pooled array of ladderChunk events. ev has length 0: a
// bucket's head chunk is filled through its tail, the ones behind are full.
type chunk struct {
	next *chunk
	ev   []msgEvent
}

// kits is the recycle point between runs: each entry is the chunks one
// released ladder held, linked through next.
var kits sync.Pool

// bucket is an unordered bag of events. tail is the array being appended
// to: the bucket's own first array while cap(tail) < ladderChunk (head is
// nil), otherwise the array of chunk head, behind which the full chunks
// are linked. A non-empty bucket has a non-empty tail.
type bucket struct {
	tail []msgEvent
	head *chunk
}

// multi reports whether b holds several arrays: over ladderSpillMin events.
func (b *bucket) multi() bool { return b.head != nil && b.head.next != nil }

// rung is one level of time-indexed buckets.
type rung struct {
	base    Time // start instant of bucket 0
	width   Time // seconds per bucket
	cur     int  // index of the bucket being drained; -1 before the first
	buckets [ladderBuckets]bucket
}

// locate maps an instant to a bucket index, clamped to the rung: instants
// before base (behind the drain point) clamp to 0.
func (r *rung) locate(at Time) int {
	i := int((at - r.base) / r.width)
	if i < 0 {
		return 0
	}
	if i >= ladderBuckets {
		return ladderBuckets - 1
	}
	return i
}

// LadderStats counts what an engine's event queue did: plain integers,
// bumped per chunk, timer or seal, or rarer (Shifted apart). All but
// Recycled depend on the run alone, not on what ran before it in the
// process.
type LadderStats struct {
	Seals      uint64 // buckets sealed into the drain bottom
	Sealed     uint64 // events in them: Sealed / Seals is the mean sealed bucket
	Timers     uint64 // timers armed
	Tombstones uint64 // cancelled timers' entries discarded
	Chunks     uint64 // chunks drawn from outside the free list: recycled or new
	Recycled   uint64 // of which: from a kit an earlier run released
	FreeHigh   uint64 // high-water of the chunk free list
	GrowCopies uint64 // first arrays copied to grow
	Spills     uint64 // rung-0 buckets re-bucketed into rung 1
	Unseals    uint64 // of which: sealed ahead of the clock, then handed back
	Reanchors  uint64 // windows rebuilt: over the far bucket, or at a message
	Shifted    uint64 // events insortBottom moved to make room
}

// ladder is the two-level event queue.
type ladder struct {
	count    int          // queued events
	timers   int          // of which timers, tombstones included
	dead     int          // of which tombstones
	slab     *[]timerSlot // the engine's, which tells tombstones apart
	r1active bool
	r0       rung
	r1       *rung // built by the first spill: a run of small buckets never pays for it

	// bottom is the sealed bucket being drained, sorted by Key; pos is the
	// next unconsumed index, and late arrivals are insertion-sorted into
	// bottom[pos:]. It is the one array of bucket src, sorted in place, or
	// (src nil) the ladder's own buffer.
	bottom []msgEvent
	pos    int
	src    *bucket
	own    []msgEvent

	// far holds the events beyond rung 0's window: farLo bounds their
	// instants, msgLo and msgHi those of its messages (msgLo > msgHi: none).
	far                 bucket
	farLo, msgLo, msgHi Time
	spare               [][]msgEvent // empty first arrays, for empty buckets

	// free is the chunk free list; nfree chunks are on it and live are held
	// by buckets. peak is the largest live since the last sweep, prevPeak
	// that of the period before, as a round quiesces twice.
	free           *chunk
	nfree, live    int
	peak, prevPeak int
	kit            *chunk // recycled chunks, drawn before one is allocated

	stats LadderStats
}

// push enqueues ev, which the engine has validated: at finite, >= now.
//
//syncsim:hotpath
func (l *ladder) push(now Time, ev msgEvent) {
	if l.count == 0 {
		l.anchor(now)
	}
	if ev.target == timerTarget {
		l.timers++
		l.stats.Timers++
		if l.count == 0 && ev.key.At > now && ev.key.At < l.r0.base+ladderBuckets*l.r0.width {
			l.own = append(l.own[:0], ev) // a lone timer is its own sealed bucket
			l.r0.cur, l.bottom, l.count = l.r0.locate(ev.key.At), l.own, 1
			return
		}
	} else if l.count == l.timers && l.count > 0 {
		l.refile(now)
	}
	l.count++
	l.place(&ev)
}

// place files ev under rung 0 or, beyond its window, in the far bucket.
//
//syncsim:hotpath
func (l *ladder) place(ev *msgEvent) {
	at := ev.key.At
	if at >= l.r0.base+ladderBuckets*l.r0.width {
		if len(l.far.tail) == 0 {
			l.farLo, l.msgLo, l.msgHi = at, math.Inf(1), math.Inf(-1)
		}
		l.farLo = min(l.farLo, at)
		if ev.target != timerTarget {
			l.msgLo, l.msgHi = min(l.msgLo, at), max(l.msgHi, at)
		}
		l.add(&l.far, ev, false)
		return
	}
	i := l.r0.locate(at)
	if i > l.r0.cur {
		l.add(&l.r0.buckets[i], ev, true)
		return
	}
	// At or behind the drain point, in the sealed region: un-seal a large
	// rung-0 bottom first, then route the event into rung 1 if that still
	// has unsealed buckets ahead of it, else into the sorted bottom.
	if !l.r1active && len(l.bottom)-l.pos >= ladderSpillMin && l.r0.width/ladderBuckets >= ladderMinWidth {
		l.unseal()
	}
	if l.r1active {
		if j := l.r1.locate(at); j > l.r1.cur {
			l.add(&l.r1.buckets[j], ev, false)
			return
		}
	}
	l.insortBottom(ev)
}

// add appends ev to b, a rung-0 bucket if wide.
//
//syncsim:hotpath
func (l *ladder) add(b *bucket, ev *msgEvent, wide bool) {
	if len(b.tail) == cap(b.tail) {
		l.grow(b, wide)
	}
	b.tail = append(b.tail, *ev)
}

// grow makes room in b's tail: a full chunk gets a fresh one chained in
// front of it. An empty bucket takes a spare first array, or a chunk if it
// is a rung-0 bucket and the pool has one to spare: rung 0's buckets are
// the ones a burst fills. Otherwise the bucket's own array doubles, into a
// chunk once it would reach the size of one — the only growth that copies.
func (l *ladder) grow(b *bucket, wide bool) {
	c := cap(b.tail)
	if c == ladderChunk {
		nc := l.takeChunk()
		nc.next, b.head, b.tail = b.head, nc, nc.ev
		return
	}
	if n := len(l.spare); c == 0 && (l.free == nil || !wide) && n > 0 {
		b.tail, l.spare = l.spare[n-1], l.spare[:n-1]
		return
	}
	var next []msgEvent
	if 2*c >= ladderChunk || c == 0 && l.free != nil {
		b.head = l.takeChunk()
		next = b.head.ev
		if c > 0 {
			l.spare = append(l.spare, b.tail[:0]) // copied below, reused later
		}
	} else {
		next = make([]msgEvent, 0, max(2*c, ladderFirstCap))
	}
	if c > 0 {
		l.stats.GrowCopies++
	}
	b.tail = append(next, b.tail...)
}

// takeChunk draws a chunk from the free list, else from the kit, and
// allocates one only when both are empty.
func (l *ladder) takeChunk() *chunk {
	c := l.free
	if c != nil {
		l.free = c.next
		l.nfree--
	} else {
		l.stats.Chunks++
		if c = l.kit; c != nil {
			l.kit = c.next
			l.stats.Recycled++
		} else {
			c = &chunk{ev: make([]msgEvent, 0, ladderChunk)}
		}
	}
	c.next = nil
	l.live++
	l.peak = max(l.peak, l.live)
	return c
}

// putChunk returns a chunk whose events have been read to the free list.
//
//syncsim:hotpath
func (l *ladder) putChunk(c *chunk) {
	c.next, l.free = l.free, c
	l.live--
	l.nfree++
	l.stats.FreeHigh = max(l.stats.FreeHigh, uint64(l.nfree))
}

// drain empties b: its events are scattered across rung r (or, r nil, are
// spent), each chunk returns to the pool as soon as it has been read — a
// spill fills rung 1 from what it frees — and a first array to the spares,
// except the far bucket's, which every window refills.
//
//syncsim:hotpath
func (l *ladder) drain(b *bucket, r *rung) {
	l.scatter(b.tail, r)
	if b.head == nil {
		if b == &l.far {
			b.tail = b.tail[:0]
		} else if cap(b.tail) > 0 {
			l.spare, b.tail = append(l.spare, b.tail[:0]), nil
		}
		return
	}
	for c := b.head; c != nil; {
		next := c.next
		l.putChunk(c)
		if next != nil {
			l.scatter(next.ev[:ladderChunk], r)
		}
		c = next
	}
	b.head, b.tail = nil, nil
}

// scatter appends evs to the buckets of r their instants select; to rung 0,
// it files them as place does and buries the tombstones among them.
//
//syncsim:hotpath
func (l *ladder) scatter(evs []msgEvent, r *rung) {
	for i := range evs {
		switch {
		case r == nil:
			return
		case r != &l.r0:
			l.add(&r.buckets[r.locate(evs[i].key.At)], &evs[i], false)
		case !l.stale(&evs[i]):
			l.place(&evs[i])
		default:
			l.count, l.timers, l.dead = l.count-1, l.timers-1, l.dead-1
			l.stats.Tombstones++
		}
	}
}

// anchor starts a fresh window at now, not at the first event: anchoring in
// the middle of a burst would clamp every earlier delivery into bucket 0,
// by the luck of the first delay draw.
func (l *ladder) anchor(now Time) {
	l.r0.base, l.r0.cur = now, -1
	if l.r0.width == 0 {
		l.r0.width = ladderDefaultWidth
	}
}

// refile rebuilds rung 0 from base: every queued event is gathered into the
// own buffer and filed again, what lies beyond the new window to far.
func (l *ladder) refile(base Time) {
	evs := l.own[:0]
	if l.src == nil && l.bottom != nil {
		evs = l.bottom[:0] // the bottom is the own buffer
	}
	evs = append(evs, l.bottom[l.pos:]...)
	l.releaseBottom()
	for i := range l.r0.buckets {
		evs = l.gather(evs, &l.r0.buckets[i])
	}
	for j := 0; l.r1active && j < ladderBuckets; j++ {
		evs = l.gather(evs, &l.r1.buckets[j])
	}
	l.r1active = false
	l.r0.base, l.r0.cur = base, -1
	l.stats.Reanchors++
	if far := l.far; far.head != nil { // refiled as it drains, chunk by chunk
		l.far = bucket{}
		l.scatter(evs, &l.r0)
		l.drain(&far, &l.r0)
	} else { // far keeps its first array
		evs = l.gather(evs, &l.far)
		l.scatter(evs, &l.r0)
	}
	l.own = evs[:0]
}

// gather appends b's events to evs and empties b.
func (l *ladder) gather(evs []msgEvent, b *bucket) []msgEvent {
	if len(b.tail) > 0 {
		evs = append(evs, b.tail...)
		for c := b.head; c != nil && c.next != nil; c = c.next {
			evs = append(evs, c.next.ev[:ladderChunk]...)
		}
		l.drain(b, nil)
	}
	return evs
}

// reanchor refiles the far bucket after the window drained, at its earliest
// event, with the width re-tuned to the span of its messages (kept when it
// holds timers only); the earliest event stays in the window, so advance
// makes progress.
func (l *ladder) reanchor() {
	msgs := l.msgLo <= l.msgHi
	if w := (l.msgHi - l.msgLo) / Time(ladderBuckets-1); w >= ladderMinWidth {
		l.r0.width = w
	}
	l.refile(l.farLo)
	if msgs {
		l.sweep()
	}
}

// openRung1 lays rung 1 over rung-0 bucket r0.cur.
//
//go:noinline
func (l *ladder) openRung1() {
	if l.r1 == nil {
		l.r1 = new(rung)
	}
	l.r1.base = l.r0.base + Time(l.r0.cur)*l.r0.width
	l.r1.width = l.r0.width / ladderBuckets
	l.r1.cur = -1
	l.r1active = true
	l.stats.Spills++
}

// unseal scatters the unconsumed part of a rung-0 bottom across rung 1,
// leaving no bottom: the consumed prefix is behind every key to come.
//
//syncsim:hotpath
func (l *ladder) unseal() {
	l.openRung1()
	l.stats.Unseals++
	l.scatter(l.bottom[l.pos:], l.r1)
	l.releaseBottom()
}

// insortBottom inserts ev into the sorted, partially drained bottom, moved
// first into the growable own buffer if it is a full bucket array.
func (l *ladder) insortBottom(ev *msgEvent) {
	lo, hi := l.pos, len(l.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ev.key.Less(l.bottom[mid].key) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	l.stats.Shifted += uint64(len(l.bottom) - lo)
	if l.src != nil && len(l.bottom) == cap(l.bottom) {
		rest := append(l.own[:0], l.bottom[l.pos:]...)
		lo -= l.pos
		l.releaseBottom()
		l.bottom = rest
	}
	l.bottom = append(l.bottom, msgEvent{})
	copy(l.bottom[lo+1:], l.bottom[lo:])
	l.bottom[lo] = *ev
}

// peek returns the earliest pending event without consuming it, nil when
// there is none; the tombstones in front of it are discarded.
//
//syncsim:hotpath
func (l *ladder) peek() *msgEvent {
	for l.count > 0 {
		if l.pos == len(l.bottom) {
			l.advance()
			continue
		}
		if ev := &l.bottom[l.pos]; !l.stale(ev) {
			return ev
		}
		l.pop()
		l.dead--
		l.stats.Tombstones++
	}
	return nil
}

// stale reports whether ev is a tombstone: a timer's entry whose slot's
// generation has moved on.
//
//syncsim:hotpath
func (l *ladder) stale(ev *msgEvent) bool {
	return ev.target == timerTarget && (*l.slab)[ev.msg.Index].gen != uint32(ev.msg.Round)
}

// pop consumes the event peek returned and returns it in place. Callers
// must call peek first and read the event before using the ladder again:
// the last event out hands the bottom's array back to the pools.
//
//syncsim:hotpath
func (l *ladder) pop() *msgEvent {
	ev := &l.bottom[l.pos]
	l.pos++
	l.count--
	if ev.target == timerTarget {
		l.timers--
	} else if l.count == l.timers && l.count > 0 {
		l.sweep() // the last message left: a quiescent point
	}
	if l.count == 0 {
		l.reset()
	}
	return ev
}

// reset leaves an empty ladder for the next push to anchor, its capacity
// retained except what the sweep finds grossly oversized.
func (l *ladder) reset() {
	l.releaseBottom()
	l.r1active = false
	l.sweep()
}

// advance seals the next non-empty bucket into bottom, or leaves the
// ladder empty when a re-anchor found tombstones only. Callers guarantee
// count > 0.
func (l *ladder) advance() {
	l.releaseBottom()
	for {
		if l.r1active {
			for j := l.r1.cur + 1; j < ladderBuckets; j++ {
				if b := &l.r1.buckets[j]; len(b.tail) > 0 {
					l.r1.cur = j
					l.seal(b)
					return
				}
			}
			l.r1active = false
		}
		i := l.r0.cur + 1
		for i < ladderBuckets && len(l.r0.buckets[i].tail) == 0 {
			i++
		}
		if i == ladderBuckets {
			if l.reanchor(); l.count == 0 {
				l.reset()
				return
			}
			continue
		}
		l.r0.cur = i
		b := &l.r0.buckets[i]
		if !crowded(b) || l.r0.width/ladderBuckets < ladderMinWidth {
			l.seal(b)
			return
		}
		// Spill: rung 1 is active again, the loop seals its first bucket.
		l.openRung1()
		l.drain(b, l.r1)
	}
}

// crowded reports whether b holds over ladderSpillMin messages, the size
// worth spilling: timers send nothing into their own bucket's span unless
// the width exceeds the minimum delay, and the un-seal rule catches that.
func crowded(b *bucket) bool {
	if !b.multi() {
		return false
	}
	n := 0
	for c, evs := b.head, b.tail; ; c, evs = c.next, c.next.ev[:ladderChunk] {
		for i := range evs {
			if evs[i].target != timerTarget {
				n++
			}
		}
		if n > ladderSpillMin || c.next == nil {
			return n > ladderSpillMin
		}
	}
}

// seal puts bucket b in Key order as the drain bottom: in place when it is
// one array, gathered into the ladder's own buffer when it is several.
//
//syncsim:hotpath
func (l *ladder) seal(b *bucket) {
	l.bottom, l.src, l.pos = b.tail, b, 0
	switch {
	case b.multi():
		l.bottom, l.src = l.gather(l.own[:0], b), nil
		slices.SortFunc(l.bottom, compareEvents)
	case len(b.tail) > ladderBinMin:
		l.distribute(b.tail)
	default:
		sortSmall(b.tail)
	}
	l.stats.Seals++
	l.stats.Sealed += uint64(len(l.bottom))
}

// compareEvents is the Key order, for the comparison sort.
func compareEvents(a, b msgEvent) int { return a.key.Compare(b.key) }

// distribute sorts b, one array of ladderBinMin to ladderChunk events: each
// instant picks one of len(b) bins of equal width over b's span (the
// maximum clamped into the last), the events go through the own buffer back
// into b bin by bin, and insertion makes the order exact whatever the bins'
// rounding. One instant, or a span too narrow to divide, leaves it all to
// insertion.
//
//syncsim:hotpath
func (l *ladder) distribute(b []msgEvent) {
	lo, hi := b[0].key.At, b[0].key.At
	for i := range b {
		if at := b[i].key.At; at < lo {
			lo = at
		} else if at > hi {
			hi = at
		}
	}
	n := len(b)
	if scale := Time(n) / (hi - lo); scale <= math.MaxFloat64 {
		var bin [ladderChunk]uint8
		var next [ladderChunk + 1]uint8 // bin j's next slot, once summed
		for i := range b {
			j := min(int((b[i].key.At-lo)*scale), n-1)
			bin[i] = uint8(j)
			next[j+1]++
		}
		for j := 1; j < n; j++ {
			next[j] += next[j-1]
		}
		l.own = append(l.own[:0], b...)
		for i := range l.own {
			j := bin[i]
			b[next[j]] = l.own[i]
			next[j]++
		}
	}
	sortSmall(b)
}

// sortSmall sorts b by straight insertion: no comparison closure, and the
// key order inlined.
//
//syncsim:hotpath
func sortSmall(b []msgEvent) {
	for i := 1; i < len(b); i++ {
		ev := b[i]
		j := i
		for ; j > 0 && ev.key.Less(b[j-1].key); j-- {
			b[j] = b[j-1]
		}
		b[j] = ev
	}
}

// releaseBottom gives bottom's array back: to the bucket it was sealed
// from, or to the ladder's own buffer.
func (l *ladder) releaseBottom() {
	if l.src != nil {
		l.drain(l.src, nil)
		l.src = nil
	} else if l.bottom != nil {
		l.own = l.bottom[:0]
	}
	l.bottom, l.pos = nil, 0
}

// sweep releases the free list and the gather buffer when both are far
// beyond anything needed since the sweep before last, so one burst does
// not pin its memory for the rest of a run. It runs at quiescent points
// (no message queued, or a re-anchor over messages), never touches a chunk
// a bucket holds, and keeps a 4x hysteresis against the recent peak.
func (l *ladder) sweep() {
	floor := max(4*max(l.peak, l.prevPeak), ladderTrimCap/ladderChunk)
	if l.live+l.nfree > floor {
		l.free, l.nfree = nil, 0
	}
	if cap(l.own) > floor*ladderChunk {
		l.own = nil
	}
	l.prevPeak, l.peak = l.peak, l.live
}

// release empties the ladder, its counters kept, and returns every chunk it
// holds as one kit: the free list, the kit's rest and the chunks of queued
// events, which are discarded.
func (l *ladder) release() *chunk {
	k := l.kit
	add := func(c *chunk) {
		for c != nil {
			c.next, k, c = k, c, c.next
		}
	}
	add(l.free)
	add(l.far.head)
	for i := range l.r0.buckets {
		add(l.r0.buckets[i].head)
		if l.r1 != nil {
			add(l.r1.buckets[i].head)
		}
	}
	*l = ladder{slab: l.slab, stats: l.stats}
	return k
}

// takeKit gives the ladder a kit from the recycle point, if it has one.
func (l *ladder) takeKit() { l.kit, _ = kits.Get().(*chunk) }

// recycle releases the ladder's chunks into the recycle point.
func (l *ladder) recycle() {
	if k := l.release(); k != nil {
		kits.Put(k)
	}
}
