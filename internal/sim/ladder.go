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
// plain values (no pointers anywhere), and draining sorts one small
// bucket at a time, so the steady-state cost per message is O(1)
// amortized appends plus an O(log b) share of sorting a bucket of b ~
// tens of events. Closure events keep the heap: they are rare (timers),
// escape to callers, and must support Cancel.
//
// Structure. Rung 0 covers the near future [base, base+256*width) with
// 256 equal buckets; events beyond it go to an unsorted far list. Events
// are drained bucket by bucket: the next non-empty bucket is sealed —
// sorted by event Key into `bottom` — and consumed in order. A sealed
// bucket that is too large is first re-bucketed ("spilled") into rung 1,
// a 256-bucket ring spanning just that bucket's width, whose buckets are
// then sealed individually; a rung-1 bucket is sorted directly however
// large it is (two levels only). When rung 0 is exhausted the ladder
// re-anchors on the far list, re-tuning the bucket width to the far
// events' span so sparse far-future schedules stay O(1) amortized too.
//
// Ordering. The engine's global order is the locally-computable event Key
// (see key.go), shared with closure events. Within the ladder this order
// is restored lazily: buckets are unsorted until sealed, and events that
// arrive behind the drain point (a callback scheduling at or near the
// current instant) are inserted into the sorted bottom by binary search.
// Step merges the ladder's head with the closure heap's head, so the
// interleaving of message and closure events matches a single priority
// queue exactly — pinned by TestLadderMatchesReferenceQueue.
//
// Sealing ahead of the clock. The run loop looks at the ladder's head
// before every event, and peek seals the next non-empty bucket as soon as
// the previous one is exhausted, even when it lies milliseconds ahead and
// timers are due before it; what those timers send into the sealed span
// are late arrivals, at a round start thousands of them into a bottom of
// thousands. Hence the un-seal rule: a push that finds a rung-0 bottom with
// ladderSpillMin or more unconsumed events hands them back to their bucket
// and spills it, making this and every later arrival a rung-1 append.

const (
	// ladderBuckets is the bucket count per rung (a power of two keeps
	// the rung arrays cache-friendly; 256 spans 256*width per window).
	ladderBuckets = 256
	// ladderSpillMin is the sealed-bucket size above which a rung-0
	// bucket is re-bucketed into rung 1 instead of sorted directly.
	ladderSpillMin = 128
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
	// ladderTrimCap is the bucket capacity (in events) above which a
	// drained bucket's backing array is released to the GC when the
	// drain used less than a quarter of it — long runs do not retain
	// worst-case burst memory forever (see TestLadderReleasesBurstMemory).
	ladderTrimCap = 8192
)

// msgEvent is one scheduled message event: a plain value, 64 bytes, no
// pointers. The ladder stores these inline, so a full window of pending
// messages is a handful of contiguous arrays the GC skips entirely.
type msgEvent struct {
	key    Key
	msg    Message
	target int32
}

// msgBefore is the engine's global event order restricted to messages.
func msgBefore(a, b msgEvent) bool { return a.key.Less(b.key) }

// rung is one level of time-indexed buckets.
type rung struct {
	base    Time // start instant of bucket 0
	width   Time // seconds per bucket
	cur     int  // index of the bucket being drained; -1 before the first
	buckets [ladderBuckets][]msgEvent
}

// locate maps an instant to a bucket index, clamped to the rung. Callers
// guarantee at < base+ladderBuckets*width for rung 0 (far list otherwise);
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

// ladder is the two-level message-event queue.
type ladder struct {
	count    int // total queued message events, all tiers
	anchored bool
	r0       rung
	r1       rung
	r1active bool

	// bottom is the sealed bucket currently being drained, sorted by
	// (at, seq); pos is the next unconsumed index. Late arrivals that
	// land at or behind the drain point are insertion-sorted into
	// bottom[pos:].
	bottom []msgEvent
	pos    int
	// srcRung/srcIdx remember which bucket lent bottom its backing
	// array, so the (possibly grown) array is returned on release.
	srcRung *rung
	srcIdx  int

	// far holds events beyond rung 0's window, unsorted; scratch is the
	// swap space used to redistribute it at re-anchor time.
	far     []msgEvent
	scratch []msgEvent

	// maxLen is the largest bucket (or far list) drained since the last
	// trim sweep, and prevMax the largest of the sweep period before it:
	// the sweep releases only capacity no recent burst came near, so
	// steady workloads never churn allocations. The floor spans two
	// periods because a round-structured workload quiesces twice per
	// round — once after the round's deliveries drain and once when the
	// next round's trigger events re-anchor the window — and the trigger
	// burst is tiny: a one-period floor would let that sweep release the
	// delivery buckets the round is just about to refill, reallocating
	// the entire steady-state working set every round.
	maxLen  int
	prevMax int

	// shifted counts the events insortBottom moved to make room.
	shifted int
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
	if ev.key.At >= l.r0.base+ladderBuckets*l.r0.width {
		l.far = append(l.far, ev)
		return
	}
	i := l.r0.locate(ev.key.At)
	if i > l.r0.cur {
		l.r0.buckets[i] = append(l.r0.buckets[i], ev)
		return
	}
	// At or behind the drain point: the event belongs to the region
	// already sealed. Un-seal a large rung-0 bottom first; then route the
	// event into rung 1 if that still has unsealed buckets ahead of it,
	// else into the sorted bottom.
	if l.srcRung == &l.r0 && len(l.bottom)-l.pos >= ladderSpillMin && l.r0.width/ladderBuckets >= ladderMinWidth {
		l.unseal()
	}
	if l.r1active {
		if j := l.r1.locate(ev.key.At); j > l.r1.cur {
			l.r1.buckets[j] = append(l.r1.buckets[j], ev)
			return
		}
	}
	l.insortBottom(ev)
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

// unseal hands the unconsumed part of a rung-0 bottom back to its bucket
// and spills it across rung 1, leaving no bottom: the consumed prefix is
// behind every key still to come, so only the drain's granularity changes.
//
//syncsim:hotpath
func (l *ladder) unseal() {
	if len(l.bottom) > l.maxLen {
		l.maxLen = len(l.bottom) // what releaseBottom would have recorded
	}
	n := copy(l.bottom, l.bottom[l.pos:])
	l.r0.buckets[l.srcIdx] = l.bottom[:n]
	l.bottom, l.pos, l.srcRung = nil, 0, nil
	l.spill(l.srcIdx)
}

// insortBottom inserts ev into the sorted, partially drained bottom.
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
	l.shifted += len(l.bottom) - lo
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
		// Pristine reset: release the drained bottom back to its bucket
		// and let the next push re-anchor at its own instant. Bucket
		// capacity is retained (steady bursts stay allocation-free)
		// except what the trim sweep finds grossly oversized.
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
				if len(l.r1.buckets[j]) > 0 {
					l.r1.cur = j
					l.seal(&l.r1, j)
					return
				}
			}
			l.r1active = false
		}
		i := l.r0.cur + 1
		for i < ladderBuckets && len(l.r0.buckets[i]) == 0 {
			i++
		}
		switch {
		case i == ladderBuckets:
			l.reanchor()
		case len(l.r0.buckets[i]) > ladderSpillMin && l.r0.width/ladderBuckets >= ladderMinWidth:
			l.r0.cur = i
			l.spill(i) // rung 1 is active again: seal its first bucket
		default:
			l.r0.cur = i
			l.seal(&l.r0, i)
			return
		}
	}
}

// seal sorts bucket i of r in place and makes it the drain bottom.
func (l *ladder) seal(r *rung, i int) {
	b := r.buckets[i]
	if len(b) <= ladderInsertionMax {
		sortSmall(b)
	} else {
		slices.SortFunc(b, func(a, b msgEvent) int { return a.key.Compare(b.key) })
	}
	l.bottom = b
	l.pos = 0
	l.srcRung, l.srcIdx = r, i
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

// releaseBottom returns bottom's backing array to the bucket it came
// from.
func (l *ladder) releaseBottom() {
	if l.srcRung != nil {
		if len(l.bottom) > l.maxLen {
			l.maxLen = len(l.bottom)
		}
		l.srcRung.buckets[l.srcIdx] = l.bottom[:0]
		l.srcRung = nil
	}
	l.bottom = nil
	l.pos = 0
}

// sweep releases backing arrays that are both large and far beyond
// anything the workload has needed since the last sweep, so one
// oversized burst does not pin its worst-case memory for the rest of a
// long run (or a campaign batch reusing the engine's allocator churn).
// It runs at quiescent points only — queue empty or window re-anchor —
// and uses a 4x hysteresis against the recent high-water mark, so a
// steady workload never releases (and never re-allocates) anything.
func (l *ladder) sweep() {
	recent := l.maxLen
	if l.prevMax > recent {
		recent = l.prevMax
	}
	floor := recent * 4
	if floor < ladderTrimCap {
		floor = ladderTrimCap
	}
	// Never release a non-empty slice: the re-anchor call site runs the
	// sweep right after redistributing the far list into rung-0 buckets,
	// so an oversized bucket may hold live events — dropping it would
	// silently lose them and desync count.
	for i := range l.r0.buckets {
		if len(l.r0.buckets[i]) == 0 && cap(l.r0.buckets[i]) > floor {
			l.r0.buckets[i] = nil
		}
		if len(l.r1.buckets[i]) == 0 && cap(l.r1.buckets[i]) > floor {
			l.r1.buckets[i] = nil
		}
	}
	if len(l.far) == 0 && cap(l.far) > floor {
		l.far = nil
	}
	if cap(l.scratch) > floor {
		l.scratch = nil
	}
	l.prevMax = l.maxLen
	l.maxLen = 0
}

// spill re-buckets the oversized rung-0 bucket i across rung 1, which
// spans exactly that bucket's width. Rung-1 buckets own their backing
// arrays and retain capacity across spills (trimmed by the quiescent
// sweep like rung 0), so both the scatter and later arrivals routed to
// an unsealed rung-1 bucket are plain appends. Late arrivals are not
// rare under bounded draining: a window bound regularly stops the drain
// mid-spill, and the next window's cross-shard deliveries then land
// inside the still-active rung-1 span — carving buckets out of one
// shared contiguous buffer (an earlier design) made every such arrival
// copy out its whole bucket.
func (l *ladder) spill(i int) {
	b := l.r0.buckets[i]
	l.r1.base = l.r0.base + Time(i)*l.r0.width
	l.r1.width = l.r0.width / ladderBuckets
	l.r1.cur = -1
	l.r1active = true
	if len(b) > l.maxLen {
		l.maxLen = len(b)
	}
	// Count first, then reserve 2x (floor 16) before scattering: per-spill
	// bucket occupancy is a handful of events and drifts round to round,
	// so growing caps by bare appends would keep crossing tiny thresholds
	// forever — with headroom, capacities converge after a few spills and
	// both the scatter and late arrivals stop allocating.
	var cnt [ladderBuckets]int32
	for _, ev := range b {
		cnt[l.r1.locate(ev.key.At)]++
	}
	for j, c := range cnt {
		if int(c) > cap(l.r1.buckets[j]) {
			want := 2 * int(c)
			if want < 16 {
				want = 16
			}
			l.r1.buckets[j] = make([]msgEvent, 0, want)
		}
	}
	for _, ev := range b {
		j := l.r1.locate(ev.key.At)
		l.r1.buckets[j] = append(l.r1.buckets[j], ev)
	}
	l.r0.buckets[i] = b[:0]
}

// reanchor rebuilds rung 0 over the far list after the window drained,
// re-tuning the bucket width to the far events' span. Callers guarantee
// count > 0, which here means far is non-empty.
func (l *ladder) reanchor() {
	lo, hi := l.far[0].key.At, l.far[0].key.At
	for _, ev := range l.far[1:] {
		if ev.key.At < lo {
			lo = ev.key.At
		}
		if ev.key.At > hi {
			hi = ev.key.At
		}
	}
	if w := (hi - lo) / Time(ladderBuckets-1); w >= ladderMinWidth {
		l.r0.width = w
	}
	l.r0.base = lo
	l.r0.cur = -1
	// Redistribute. Every far event fits the new window by construction
	// (locate clamps the hi endpoint into the last bucket).
	for _, ev := range l.far {
		i := l.r0.locate(ev.key.At)
		l.r0.buckets[i] = append(l.r0.buckets[i], ev)
	}
	if len(l.far) > l.maxLen {
		l.maxLen = len(l.far)
	}
	next := l.scratch[:0]
	l.scratch = l.far[:0]
	l.far = next
	l.sweep()
}
