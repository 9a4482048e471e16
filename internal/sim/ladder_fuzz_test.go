package sim

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The fuzz target drives an engine through an op stream decoded from the
// fuzz bytes, three bytes an op, against a brute-force minimum scan.
//
//	b0 & 7   0-2 message push, 3 timer arm, 4 timer cancel,
//	         5 peek (seals ahead of the clock), 6 bounded drain, 7 pop
//	b0 >> 3  push / arm: index into fuzzCoarse, the offset from the drain point
//	b1       push / arm / drain: count - 1; cancel: the handle, counted
//	         back from the newest — live, fired or cancelled alike
//	b2       push / arm: step between the events, fuzzStep[b2&15] * (1 + b2>>4)
//
// fuzzCoarse spans the distances the ladder treats differently: the drain
// point itself (late arrival), inside the bucket being drained, the next
// buckets, the edge of the 256-bucket window, the far bucket, and spans so
// small or so large that a re-anchor re-tunes the width to its floor or by
// orders of magnitude.
var (
	fuzzCoarse = [32]Time{
		0, 1e-12, 1e-10, 5e-9, 1e-7, 1e-6, 1e-5, 1e-4,
		5e-4, 1e-3, 1.5e-3, 2e-3, 3e-3, 5e-3, 1e-2, 5e-2,
		0.1, 0.2, 0.255, 0.256, 0.3, 1, 3, 10,
		100, 1000, 1e4, 1e6, 2e-3, 1e-3, 0, 0.256,
	}
	fuzzStep = [16]Time{0, 1e-13, 1e-12, 3e-11, 1e-9, 1e-7, 1e-6, 8e-6, 1e-5, 1e-4, 5e-4, 1e-3, 1e-2, 0.1, 1, 7}
)

// fuzzMaxEvents bounds one input's pushes: the reference pop is a scan.
const fuzzMaxEvents = 4096

// fuzzRun is what one op stream left behind: the drained engine, and how
// many cancels named a handle whose slot had been re-armed since.
type fuzzRun struct {
	e           *Engine
	staleReused int
}

// runLadderOps executes one op stream and returns the engine, drained. Every
// event must fire when the reference says, in the order head announced, and
// a cancelled timer never; Processed counts fired events only and Pending
// the reference's.
func runLadderOps(t *testing.T, data []byte) fuzzRun {
	t.Helper()
	e := New(1)
	type refEvent struct {
		key    Key
		handle int // index into handles, -1 for a message
	}
	var (
		ref       []refEvent
		handles   []Timer
		fired     []uint32 // Seq of each fired event
		pops      int
		cancelled uint64
		run       = fuzzRun{e: e}
	)
	target := e.RegisterDispatcher(&funcDispatcher{fn: func(_ Time, m Message) { fired = append(fired, m.Index) }})
	pop := func() {
		head := e.ladder.peek()
		if head == nil {
			t.Fatalf("pop %d: engine empty with %d events in the reference", pops, len(ref))
		}
		best := 0
		for i := range ref {
			if ref[i].key.Less(ref[best].key) {
				best = i
			}
		}
		k := head.key
		e.Step()
		pops++
		if k != ref[best].key || len(fired) != pops || fired[pops-1] != k.Seq {
			t.Fatalf("pop %d: engine fired %v (head %+v), reference minimum %+v", pops, fired[max(0, len(fired)-1):], k, ref[best])
		}
		ref[best] = ref[len(ref)-1]
		ref = ref[:len(ref)-1]
	}
	for ; len(data) >= 3; data = data[3:] {
		kind, count := data[0]&7, int(data[1])+1
		// Only far messages re-tune the width: with none beyond the window,
		// no op may change it.
		w := e.ladder.r0.width
		end := e.ladder.r0.base + ladderBuckets*w
		farMsg := slices.ContainsFunc(ref, func(r refEvent) bool { return r.handle < 0 && r.key.At >= end })
		switch {
		case kind <= 3:
			step := fuzzStep[data[2]&15] * Time(1+data[2]>>4)
			for j := 0; j < count && len(fired)+len(ref) < fuzzMaxEvents; j++ {
				now := e.Now()
				k := Key{At: now + fuzzCoarse[data[0]>>3] + Time(j)*step, Cause: now, Lane: LaneGlobal, Seq: uint32(pops + len(ref) + int(cancelled))}
				if kind < 3 {
					ref = append(ref, refEvent{key: k, handle: -1})
					e.MustAtMsg(k.At, target, Message{Index: k.Seq})
					continue
				}
				ref = append(ref, refEvent{key: k, handle: len(handles)})
				handles = append(handles, e.MustAt(k.At, func() { fired = append(fired, k.Seq) }))
			}
		case kind == 4:
			if len(handles) == 0 {
				break
			}
			h := len(handles) - 1 - int(data[1])%len(handles)
			e.Cancel(handles[h])
			i := slices.IndexFunc(ref, func(r refEvent) bool { return r.handle == h })
			if i >= 0 {
				ref = slices.Delete(ref, i, i+1)
				cancelled++
			} else if slices.ContainsFunc(handles[h+1:], func(o Timer) bool { return o.slot == handles[h].slot }) {
				run.staleReused++
			}
		case kind == 5:
			e.ladder.peek()
		default:
			if kind == 7 {
				count = 1
			}
			for ; count > 0 && len(ref) > 0; count-- {
				pop()
			}
		}
		if e.Pending() != len(ref) || e.Processed() != uint64(pops) {
			t.Fatalf("engine holds %d events after %d fired, reference %d after %d", e.Pending(), e.Processed(), len(ref), pops)
		}
		if w != 0 && !farMsg && e.ladder.r0.width != w {
			t.Fatalf("width re-tuned from %g to %g with no message beyond the window", w, e.ladder.r0.width)
		}
	}
	for len(ref) > 0 {
		pop()
	}
	if e.ladder.peek() != nil || e.ladder.count != 0 || e.ladder.live != 0 || e.Processed() != uint64(pops) || e.ladder.stats.Tombstones != cancelled {
		t.Fatalf("after the drain: count %d, %d chunks still held, %d processed of %d, %d tombstones of %d cancels",
			e.ladder.count, e.ladder.live, e.Processed(), pops, e.ladder.stats.Tombstones, cancelled)
	}
	return run
}

func FuzzLadderMatchesReferenceQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { runLadderOps(t, data) })
}

// TestLadderFuzzSeedsReachTheirPaths runs the committed seed corpus and
// requires each named seed to take the ladder through the transition it is
// named after, so the fuzzer starts from inputs on both sides of each.
func TestLadderFuzzSeedsReachTheirPaths(t *testing.T) {
	reached := map[string]func(r fuzzRun, l *ladder) bool{
		"bucket-of-200-spills":       func(_ fuzzRun, l *ladder) bool { return l.stats.Spills > 0 && l.stats.Unseals == 0 },
		"sealed-ahead-then-unsealed": func(_ fuzzRun, l *ladder) bool { return l.stats.Unseals > 0 },
		"multi-chunk-under-min-width": func(_ fuzzRun, l *ladder) bool {
			return l.stats.Reanchors > 0 && l.stats.Spills == 0 && cap(l.own) >= 300
		},
		"reanchor-retunes-the-width":   func(_ fuzzRun, l *ladder) bool { return l.stats.Reanchors > 0 && l.r0.width > 10*ladderDefaultWidth },
		"late-arrivals-outgrow-bottom": func(_ fuzzRun, l *ladder) bool { return l.stats.Shifted > 0 && cap(l.own) > 0 && l.stats.Spills == 0 },
		// A stale handle whose slot a later timer reuses cancels nothing;
		// a live one leaves a tombstone.
		"cancel-after-slot-reuse": func(r fuzzRun, l *ladder) bool { return r.staleReused > 0 && l.stats.Tombstones > 0 },
		// Timers spread over seconds re-anchor the window one at a time
		// and leave the message-tuned width alone.
		"timers-only-far-bucket": func(_ fuzzRun, l *ladder) bool {
			return l.stats.Timers >= 8 && l.stats.Reanchors >= 4 && l.r0.width == ladderDefaultWidth
		},
		// A burst, a sampler tick beyond the window, a burst from the tick's
		// instant, and so on: every burst after a tick lands in a window
		// anchored at the tick, at the width the bursts need, unspilled.
		"sampler-between-bursts": func(_ fuzzRun, l *ladder) bool {
			return l.stats.Timers >= 3 && l.stats.Reanchors >= 3 && l.stats.Spills == 0 && l.r0.width == ladderDefaultWidth
		},
		// One bucket of more than ladderBinMin events, all at one instant:
		// the distribution path meets an infinite scale and leaves the
		// bucket to insertion, never touching the own buffer.
		"one-instant-bucket": func(_ fuzzRun, l *ladder) bool {
			return l.stats.Seals == 1 && l.stats.Sealed > ladderBinMin && l.stats.Sealed <= ladderChunk && cap(l.own) == 0
		},
		// One bucket filling one chunk exactly at distinct instants: the
		// largest bucket the bins take, scattered through the own buffer.
		"full-chunk-bucket": func(_ fuzzRun, l *ladder) bool {
			return l.stats.Seals == 1 && l.stats.Sealed == ladderChunk && cap(l.own) >= ladderChunk
		},
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzLadderMatchesReferenceQueue")
	for name, ok := range reached {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		// A corpus file is a version line and one Go-syntax []byte("...") line.
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		data, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := runLadderOps(t, []byte(data))
		if l := &r.e.ladder; !ok(r, l) {
			t.Errorf("seed %s does not reach its path: stats %+v, width %g, own cap %d, stale cancels %d", name, l.stats, l.r0.width, cap(l.own), r.staleReused)
		}
	}
}
