package sim

import "slices"

// This file implements the message-event scheduler: a two-level
// ladder/calendar queue of value-inline events.
//
// Motivation: the simulator's O(n^2)-per-round hot path schedules and
// drains one event per message. On a binary heap of *Event pointers
// every message pays two O(log k) pointer-chasing reorganizations (push
// + pop), and the heap itself is a large pointer-dense allocation the
// garbage collector must trace. The ladder replaces both costs for
// message events: scheduling is an append into a time-indexed bucket of
// plain values, and draining sorts one small bucket at a time, so the
// steady-state cost per message is O(1) amortized appends plus an
// O(log b) share of sorting a bucket of b ~ tens of events. Closure
// events keep the heap: they are rare (timers), escape to callers, and
// must support Cancel.
//
// Structure. Rung 0 covers the near future [base, base+256*width) with
// 256 equal buckets; events beyond it go to the far bucket. Events are
// drained bucket by bucket: the next non-empty bucket is sealed — sorted
// by event Key into `bottom` — and consumed in order. A bucket that is
// too large is first re-bucketed ("spilled") into rung 1, a 256-bucket
// ring spanning just that bucket's width, whose buckets are then sealed
// individually; a rung-1 bucket is sorted directly however large it is
// (two levels only). When rung 0 is exhausted the ladder re-anchors on
// the far bucket, re-tuning the bucket width to the far events' span so
// sparse far-future schedules stay O(1) amortized too.
//
// Capacity belongs to the ladder, not to a bucket index. A bucket is
// unordered until sealed, so it need not be contiguous: it is a list of
// ladderChunk-event chunks drawn from and returned to one per-ladder free
// list, which sweep trims at quiescent points. Queue memory is the
// in-flight peak rounded up to chunks, and a re-anchor that re-tunes the
// width strands nothing. Three exceptions: a bucket's first array doubles
// up to one chunk and stays with its bucket while smaller than one, so a
// run of small buckets (a campaign cell) never builds a pool; a bucket of
// at most ladderSpillMin events is one array, which seal sorts in place;
// and a bucket sealed at several chunks (rung 1 under a burst at one
// instant, rung 0 under the ladderMinWidth fallback) is gathered into the
// ladder's one contiguous buffer, `own`, which also takes over a bottom
// that late arrivals outgrow.
//
// Ordering. The engine's global order is the locally-computable event Key
// (see key.go), shared with closure events. Within the ladder this order
// is restored lazily: buckets are unsorted until sealed, and events that
// arrive behind the drain point (a callback scheduling at or near the
// current instant) are inserted into the sorted bottom by binary search.
// Step merges the ladder's head with the closure heap's head, so the
// interleaving of message and closure events matches a single priority
// queue exactly — pinned by TestLadderMatchesReferenceQueue and
// FuzzLadderMatchesReferenceQueue.
//
// Sealing ahead of the clock. The run loop looks at the ladder's head
// before every event, and peek seals the next non-empty bucket as soon as
// the previous one is exhausted, even when it lies milliseconds ahead and
// timers are due before it; what those timers send into the sealed span
// are late arrivals, at a round start thousands of them into a bottom of
// thousands. Hence the un-seal rule: a push that finds a rung-0 bottom with
// ladderSpillMin or more unconsumed events scatters them across rung 1,
// making this and every later arrival a rung-1 append.

const (
	// ladderBuckets is the bucket count per rung (a power of two keeps
	// the rung arrays cache-friendly; 256 spans 256*width per window).
	ladderBuckets = 256
	// ladderSpillMin is the sealed-bucket size above which a rung-0
	// bucket is re-bucketed into rung 1 instead of sorted directly.
	ladderSpillMin = 128
	// ladderChunk is the event capacity of one pooled chunk (6 KB): "more
	// than one chunk" and "spills" are the same test.
	ladderChunk = ladderSpillMin
	// ladderFirstCap is the capacity a bucket's first array starts at, so
	// the drift of rung-1 occupancies (a few events a bucket) stops
	// crossing growth thresholds after the first rounds.
	ladderFirstCap = 8
	// ladderInsertionMax is the bucket size up to which seal sorts by
	// straight insertion instead of the generic comparison sort.
	ladderInsertionMax = 64
	// ladderDefaultWidth is the initial rung-0 bucket width in seconds
	// (LAN-scale delivery delays land a handful of buckets apart). The
	// width re-tunes automatically at every re-anchor.
	ladderDefaultWidth = 1e-3
	// ladderMinWidth floors the re-tuned width so locate() never
	// divides by a denormal.
	ladderMinWidth = 1e-12
	// ladderTrimCap is the capacity (in events) the free list and the
	// gather buffer may always keep; sweep releases what exceeds it and
	// four times the recent peak (see TestLadderReleasesBurstMemory).
	ladderTrimCap = 8192
)

// msgEvent is one scheduled message event: a plain value, 48 bytes (a
// 24-byte Key, a 20-byte Message, the target), no pointers. The ladder
// stores these inline, so a full window of pending messages is a set of
// 6 KB arrays the GC skips entirely.
type msgEvent struct {
	key    Key
	msg    Message
	target int32
}

// msgBefore is the engine's global event order restricted to messages.
func msgBefore(a, b msgEvent) bool { return a.key.Less(b.key) }

// chunk is one pooled array of ladderChunk events. ev has length 0: a
// bucket's head chunk is filled through its tail, the ones behind are full.
type chunk struct {
	next *chunk
	ev   []msgEvent
}

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

// locate maps an instant to a bucket index, clamped to the rung. Callers
// guarantee at < base+ladderBuckets*width for rung 0 (far bucket otherwise);
// instants before base (events behind the drain point) clamp to 0.
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

// LadderStats counts what an engine's message queue did: plain integers,
// bumped per chunk or rarer (Shifted apart), read once a run is over.
type LadderStats struct {
	Chunks     uint64 // chunks allocated
	FreeHigh   uint64 // high-water of the chunk free list
	GrowCopies uint64 // first arrays copied to grow
	Spills     uint64 // rung-0 buckets re-bucketed into rung 1
	Unseals    uint64 // of which: sealed ahead of the clock, then handed back
	Reanchors  uint64 // windows rebuilt over the far bucket
	Shifted    uint64 // events insortBottom moved to make room
}

// ladder is the two-level message-event queue.
type ladder struct {
	count    int // total queued message events, all tiers
	anchored bool
	r1active bool
	r0       rung
	r1       *rung // built by the first spill: a run of small buckets never pays for it

	// bottom is the sealed bucket currently being drained, sorted by Key;
	// pos is the next unconsumed index. Late arrivals that land at or
	// behind the drain point are insertion-sorted into bottom[pos:]. It is
	// the one array of bucket src, sorted in place, or (src nil) the
	// ladder's own buffer; with rung 1 inactive it came from bucket r0.cur.
	bottom []msgEvent
	pos    int
	src    *bucket
	own    []msgEvent

	// far holds events beyond rung 0's window; farLo and farHi bound their
	// instants, so a re-anchor reads them once.
	far          bucket
	farLo, farHi Time

	// free is the chunk free list; nfree chunks are on it and live are held
	// by buckets. peak is the largest live since the last sweep and
	// prevPeak that of the period before: sweep releases only capacity no
	// recent burst came near. Two periods, because a round-structured
	// workload quiesces twice per round — after its deliveries drain and
	// when the next round's few trigger events re-anchor the window — and
	// a one-period floor would release the chunks about to be refilled.
	free           *chunk
	nfree, live    int
	peak, prevPeak int

	stats LadderStats
}

// push enqueues ev. ev.at must be finite and >= now, the engine's
// current time (validated by the engine before the event is built).
//
//syncsim:hotpath
func (l *ladder) push(now Time, ev msgEvent) {
	if !l.anchored {
		l.anchor(now)
	}
	l.count++
	if at := ev.key.At; at >= l.r0.base+ladderBuckets*l.r0.width {
		if len(l.far.tail) == 0 {
			l.farLo, l.farHi = at, at
		}
		l.farLo, l.farHi = min(l.farLo, at), max(l.farHi, at)
		l.add(&l.far, ev)
		return
	}
	i := l.r0.locate(ev.key.At)
	if i > l.r0.cur {
		l.add(&l.r0.buckets[i], ev)
		return
	}
	// At or behind the drain point: the event belongs to the region
	// already sealed. Un-seal a large rung-0 bottom first; then route the
	// event into rung 1 if that still has unsealed buckets ahead of it,
	// else into the sorted bottom.
	if !l.r1active && len(l.bottom)-l.pos >= ladderSpillMin && l.r0.width/ladderBuckets >= ladderMinWidth {
		l.unseal()
	}
	if l.r1active {
		if j := l.r1.locate(ev.key.At); j > l.r1.cur {
			l.add(&l.r1.buckets[j], ev)
			return
		}
	}
	l.insortBottom(ev)
}

// add appends ev to b.
//
//syncsim:hotpath
func (l *ladder) add(b *bucket, ev msgEvent) {
	if len(b.tail) == cap(b.tail) {
		l.grow(b)
	}
	b.tail = append(b.tail, ev)
}

// grow makes room in b's tail: a full chunk gets a fresh one chained in
// front of it; an empty bucket takes a chunk when the pool has one to
// spare; otherwise the bucket's own array doubles, into a chunk once it
// would reach the size of one — the only growth that copies.
func (l *ladder) grow(b *bucket) {
	c := cap(b.tail)
	if c == ladderChunk {
		nc := l.takeChunk()
		nc.next, b.head, b.tail = b.head, nc, nc.ev
		return
	}
	var next []msgEvent
	if 2*c >= ladderChunk || c == 0 && l.free != nil {
		b.head = l.takeChunk()
		next = b.head.ev
	} else {
		next = make([]msgEvent, 0, max(2*c, ladderFirstCap))
	}
	if c > 0 {
		l.stats.GrowCopies++
	}
	b.tail = append(next, b.tail...)
}

// takeChunk draws a chunk from the free list, or allocates one.
func (l *ladder) takeChunk() *chunk {
	c := l.free
	if c == nil {
		l.stats.Chunks++
		c = &chunk{ev: make([]msgEvent, 0, ladderChunk)}
	} else {
		l.free, c.next = c.next, nil
		l.nfree--
	}
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
// spill fills rung 1 from what it frees — and a first array stays put.
//
//syncsim:hotpath
func (l *ladder) drain(b *bucket, r *rung) {
	l.scatter(b.tail, r)
	if b.head == nil {
		b.tail = b.tail[:0]
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

// scatter appends evs to the buckets of r their instants select.
//
//syncsim:hotpath
func (l *ladder) scatter(evs []msgEvent, r *rung) {
	if r == nil {
		return
	}
	for i := range evs {
		l.add(&r.buckets[r.locate(evs[i].key.At)], evs[i])
	}
}

// anchor starts a fresh window at the current instant — not at the
// first event's: anchoring on an event in the middle of a burst would
// clamp every earlier-delivery event into bucket 0, skewing occupancy by
// the luck of the first delay draw. The bucket width is retained across
// anchors (it re-tunes at re-anchor time).
func (l *ladder) anchor(at Time) {
	if l.r0.width < ladderMinWidth {
		l.r0.width = ladderDefaultWidth
	}
	l.r0.base = at
	l.r0.cur = -1
	l.anchored = true
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
// leaving no bottom: the consumed prefix is behind every key still to
// come, so only the drain's granularity changes.
//
//syncsim:hotpath
func (l *ladder) unseal() {
	l.openRung1()
	l.stats.Unseals++
	l.scatter(l.bottom[l.pos:], l.r1)
	l.releaseBottom()
}

// insortBottom inserts ev into the sorted, partially drained bottom. A
// bucket's array that has no room left is first exchanged for the ladder's
// own buffer, which may grow.
func (l *ladder) insortBottom(ev msgEvent) {
	lo, hi := l.pos, len(l.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if msgBefore(ev, l.bottom[mid]) {
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
	l.bottom[lo] = ev
}

// peek returns the key of the earliest pending message event without
// consuming it.
func (l *ladder) peek() (Key, bool) {
	if l.count == 0 {
		return Key{}, false
	}
	for l.pos >= len(l.bottom) {
		l.advance()
	}
	return l.bottom[l.pos].key, true
}

// pop consumes the event peek returned. Callers must call peek first.
//
//syncsim:hotpath
func (l *ladder) pop() msgEvent {
	ev := l.bottom[l.pos]
	l.pos++
	l.count--
	if l.count == 0 {
		// Pristine reset: release the drained bottom and let the next push
		// re-anchor at its own instant. Capacity is retained (steady
		// bursts stay allocation-free) except what the trim sweep finds
		// grossly oversized.
		l.releaseBottom()
		l.r1active = false
		l.anchored = false
		l.sweep()
	}
	return ev
}

// advance seals the next non-empty bucket into bottom. Callers guarantee
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
			l.reanchor()
			continue
		}
		l.r0.cur = i
		b := &l.r0.buckets[i]
		if !b.multi() || l.r0.width/ladderBuckets < ladderMinWidth {
			l.seal(b)
			return
		}
		// Spill: rung 1 is active again, the loop seals its first bucket.
		l.openRung1()
		l.drain(b, l.r1)
	}
}

// seal sorts bucket b and makes it the drain bottom: in place when it is
// one array, gathered into the ladder's own buffer when it is several.
func (l *ladder) seal(b *bucket) {
	l.bottom, l.src = b.tail, b
	if b.multi() {
		l.bottom, l.src = append(l.own[:0], b.tail...), nil
		for c := b.head.next; c != nil; c = c.next {
			l.bottom = append(l.bottom, c.ev[:ladderChunk]...)
		}
		l.drain(b, nil)
	}
	if len(l.bottom) <= ladderInsertionMax {
		sortSmall(l.bottom)
	} else {
		slices.SortFunc(l.bottom, func(a, b msgEvent) int { return a.key.Compare(b.key) })
	}
	l.pos = 0
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

// sweep releases the free list and the gather buffer when they are both
// large and far beyond anything the workload has needed since the sweep
// before last, so one oversized burst does not pin its worst-case memory
// for the rest of a long run. It runs at quiescent points only — queue
// empty or window re-anchor, no bottom — never touches a chunk a bucket
// holds, and uses a 4x hysteresis against the recent in-flight peak, so a
// steady workload never releases (and never re-allocates) anything.
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

// reanchor rebuilds rung 0 over the far bucket after the window drained,
// re-tuning the bucket width to the far events' span. Callers guarantee
// count > 0, which here means far is non-empty. Every far event fits the
// new window by construction (locate clamps farHi into the last bucket).
func (l *ladder) reanchor() {
	if w := (l.farHi - l.farLo) / Time(ladderBuckets-1); w >= ladderMinWidth {
		l.r0.width = w
	}
	l.r0.base = l.farLo
	l.r0.cur = -1
	l.stats.Reanchors++
	l.drain(&l.far, &l.r0)
	l.sweep()
}
