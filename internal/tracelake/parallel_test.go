package tracelake

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"optsync/internal/probe"
)

// workerCounts is the property-test grid: serial, the smallest real
// pool, an odd width, and a pool wider than most CI runners have cores
// (so workers outnumber in-flight blocks).
var workerCounts = []int{1, 2, 3, 8}

// mixedEvents is a stream of two dense types (deliveries on every step,
// sends on every third) beside four sparse ones: pulses (two blocks, the
// second starting two thirds into the run), resyncs and skew samples (one
// block each, spread over the whole run) and node boots (one block, all
// at the start). It is the layout where the order the shared prefetch
// readers are granted in matters: the merge wants a sparse type's second
// block only late in the run.
func mixedEvents(seed int64) []probe.Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []probe.Event
	add := func(typ probe.Type, k int) {
		evs = append(evs, probe.Event{Type: typ, Kind: uint16(k % 3), From: int32(k % 16), To: int32(rng.Intn(16)),
			Round: int32(k / 2000), T: 1e-3 * float64(len(evs)), Value: rng.Float64(), Aux: float64(k % 5)})
	}
	for i := 0; i < 16; i++ {
		add(probe.TypeNodeBoot, i)
	}
	for k := 0; k < 36000; k++ {
		add(probe.TypeMessageDelivered, k)
		if k%3 == 0 {
			add(probe.TypeMessageSent, k)
		}
		if k%6 == 0 {
			add(probe.TypePulse, k)
		}
		if k%10 == 0 {
			add(probe.TypeResync, k)
		}
		if k%12 == 0 {
			add(probe.TypeSkewSample, k)
		}
	}
	return evs
}

// testLakes are the corpora the worker-count equivalence tests run on.
func testLakes() []struct {
	name string
	evs  []probe.Event
} {
	return []struct {
		name string
		evs  []probe.Event
	}{{"synth", synthEvents(10, 60, 5)}, {"mixed", mixedEvents(5)}}
}

// queryGrid returns the query shapes the parallel/serial equivalence
// tests sweep: match-all, a selective time slice, a node filter, and a
// typed round window — each at every worker count.
func queryGrid(tMax float64) []Query {
	return []Query{
		{},
		Query{}.WithTimeRange(tMax*0.3, tMax*0.6),
		Query{}.WithNode(3),
		Query{}.WithTypes(probe.TypePulse, probe.TypeSkewSample).WithRounds(2, 5),
	}
}

// scanOutcome captures everything observable from one scan: the exact
// event sequence, the stats, and the error text (empty when nil).
type scanOutcome struct {
	events []probe.Event
	stats  ScanStats
	errStr string
}

func runScan(l *Lake, q Query, ordered bool) scanOutcome {
	return runScanStop(l, q, ordered, 0, nil)
}

// runScanStop is runScan through a callback that returns stop once it
// has seen stopAt events (never when stopAt is 0).
func runScanStop(l *Lake, q Query, ordered bool, stopAt int, stop error) scanOutcome {
	var o scanOutcome
	scan := l.ScanUnordered
	if ordered {
		scan = l.Scan
	}
	st, err := scan(q, func(ev probe.Event) error {
		o.events = append(o.events, ev)
		if len(o.events) == stopAt {
			return stop
		}
		return nil
	})
	o.stats = st
	if err != nil {
		o.errStr = err.Error()
	}
	return o
}

// TestParallelScanByteIdentical is the determinism property test: for
// every query shape, Scan (ordered merge) and ScanUnordered (block
// order) must produce the identical event sequence and identical stats
// at every worker count, and leave no goroutine behind. Run under -race
// in CI, this also shakes the pool for data races.
func TestParallelScanByteIdentical(t *testing.T) {
	for _, lake := range testLakes() {
		data := buildLake(t, lake.evs)
		tMax := lake.evs[len(lake.evs)-1].T
		for qi, base := range queryGrid(tMax) {
			for _, ordered := range []bool{false, true} {
				var ref scanOutcome
				for _, w := range workerCounts {
					l := openLake(t, data)
					q := base.WithWorkers(w)
					baseline := runtime.NumGoroutine()
					got := runScan(l, q, ordered)
					waitGoroutines(t, baseline)
					l.Close()
					if got.errStr != "" {
						t.Fatalf("%s query %d ordered=%v workers=%d: %s", lake.name, qi, ordered, w, got.errStr)
					}
					if len(got.events) == 0 {
						t.Fatalf("%s query %d matched nothing; widen the grid", lake.name, qi)
					}
					if w == workerCounts[0] {
						ref = got
						continue
					}
					if !reflect.DeepEqual(got.events, ref.events) {
						t.Fatalf("%s query %d ordered=%v: workers=%d event stream diverges from workers=1", lake.name, qi, ordered, w)
					}
					if got.stats != ref.stats {
						t.Fatalf("%s query %d ordered=%v: workers=%d stats %+v, workers=1 %+v", lake.name, qi, ordered, w, got.stats, ref.stats)
					}
				}
			}
		}
	}
}

// TestParallelScanErrorParity: corruption and callback aborts must
// surface identically at every worker count — same error text, same
// number of events delivered before the stop — and leave no goroutine
// behind. In-order delivery makes the parallel scan's failure behavior
// indistinguishable from serial.
func TestParallelScanErrorParity(t *testing.T) {
	t.Run("corrupt_block", func(t *testing.T) {
		for _, lake := range testLakes() {
			data := buildLake(t, lake.evs)
			l0 := openLake(t, data)
			// Flip a payload byte in a middle block so several healthy blocks
			// decode first on other workers.
			mid := l0.blocks[len(l0.blocks)/2]
			l0.Close()
			data[int(mid.offset)+blockHeaderSize+3] ^= 0x10
			for _, ordered := range []bool{false, true} {
				var ref scanOutcome
				for _, w := range workerCounts {
					l := openLake(t, data)
					baseline := runtime.NumGoroutine()
					got := runScan(l, Query{Workers: w}, ordered)
					waitGoroutines(t, baseline)
					l.Close()
					if got.errStr == "" {
						t.Fatalf("%s ordered=%v workers=%d: corrupt block scanned clean", lake.name, ordered, w)
					}
					if w == workerCounts[0] {
						ref = got
						continue
					}
					if got.errStr != ref.errStr {
						t.Fatalf("%s ordered=%v workers=%d error %q, workers=1 %q", lake.name, ordered, w, got.errStr, ref.errStr)
					}
					if len(got.events) != len(ref.events) {
						t.Fatalf("%s ordered=%v workers=%d delivered %d events before failing, workers=1 %d",
							lake.name, ordered, w, len(got.events), len(ref.events))
					}
				}
			}
		}
	})

	// Stop on the first event, in the middle of the stream and on the
	// last event, in stream order and in block order.
	t.Run("callback_abort", func(t *testing.T) {
		sentinel := errors.New("stop here")
		for _, lake := range testLakes() {
			data := buildLake(t, lake.evs)
			n := len(lake.evs)
			for _, ordered := range []bool{false, true} {
				for _, stopAt := range []int{1, n / 2, n} {
					var ref scanOutcome
					for _, w := range workerCounts {
						l := openLake(t, data)
						baseline := runtime.NumGoroutine()
						got := runScanStop(l, Query{Workers: w}, ordered, stopAt, sentinel)
						waitGoroutines(t, baseline)
						l.Close()
						if got.errStr != sentinel.Error() || len(got.events) != stopAt {
							t.Fatalf("%s ordered=%v stop %d workers=%d: %d events, error %q",
								lake.name, ordered, stopAt, w, len(got.events), got.errStr)
						}
						if w == workerCounts[0] {
							ref = got
							continue
						}
						if !reflect.DeepEqual(got.events, ref.events) || got.stats != ref.stats {
							t.Fatalf("%s ordered=%v stop %d: workers=%d saw other events or stats (%+v) than workers=1 (%+v)",
								lake.name, ordered, stopAt, w, got.stats, ref.stats)
						}
					}
				}
			}
		}
	})
}

// TestScanReaderBudget: a read draws one reader per block stream it
// merges plus at most one shared prefetch reader per worker — K + W for
// a K-type Scan, 1 + W for ScanRows, Stats and Replay — and exactly K at
// one worker. A fresh lake's free list holds what the call drew.
func TestScanReaderBudget(t *testing.T) {
	evs := mixedEvents(17)
	data := buildLake(t, evs)
	tMax := evs[len(evs)-1].T
	l := openLake(t, data)
	perType := map[probe.Type]int{}
	for _, m := range l.blocks {
		perType[m.typ]++
	}
	k := len(perType)
	if k < 6 || perType[probe.TypeMessageDelivered] < 4 || perType[probe.TypeMessageSent] < 2 || perType[probe.TypePulse] != 2 {
		t.Fatalf("the corpus has %d types in blocks %v; want two dense types and four sparse ones", k, perType)
	}
	drew := func(w int, call func(l *Lake, w int) error) int {
		t.Helper()
		l := openLake(t, data)
		defer l.Close()
		baseline := runtime.NumGoroutine()
		if err := call(l, w); err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, baseline)
		return len(l.free)
	}
	scan := func(q Query) func(*Lake, int) error {
		return func(l *Lake, w int) error {
			_, err := l.Scan(q.WithWorkers(w), func(probe.Event) error { return nil })
			return err
		}
	}
	scanRows := func(l *Lake, w int) error {
		_, err := l.ScanRows(Query{Workers: w}, func(*Rows) error { return nil })
		return err
	}
	replay := func(l *Lake, w int) error {
		_, err := l.Replay(Query{Workers: w}, probe.NewSkewStats(), probe.NewMsgStats())
		return err
	}
	stats := func(l *Lake, w int) error {
		st, err := l.Stats(Query{Workers: w}.WithTimeRange(tMax*0.3, tMax*0.6))
		if err == nil && st.BlocksScanned == 0 {
			err = errors.New("the partial query decoded nothing")
		}
		return err
	}
	for _, w := range workerCounts {
		got := drew(w, scan(Query{}))
		if w == 1 && got != k || got > k+w {
			t.Errorf("Scan workers=%d drew %d readers for %d types", w, got, k)
		}
		for name, call := range map[string]func(*Lake, int) error{"ScanRows": scanRows, "Replay": replay, "Stats": stats} {
			if got := drew(w, call); got > 1+w {
				t.Errorf("%s workers=%d drew %d readers, budget %d", name, w, got, 1+w)
			}
		}
	}

	// A whole analysis session at two workers never holds more than the
	// widest call took.
	session := func(l *Lake, w int) error {
		if _, err := l.Stats(Query{Workers: w}); err != nil {
			return err
		}
		for _, call := range []func(*Lake, int) error{scan(Query{}), scanRows} {
			if err := call(l, w); err != nil {
				return err
			}
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 8; i++ {
			lo := rng.Float64() * tMax * 0.9
			if err := scan(Query{}.WithTimeRange(lo, lo+tMax/20).WithNode(rng.Int31n(16)))(l, w); err != nil {
				return err
			}
		}
		return replay(l, w)
	}
	if got := drew(2, session); got > k+2 {
		t.Errorf("a session at workers=2 drew %d readers, budget %d", got, k+2)
	}
}

// TestNegativeWorkersRejected: every scan entry point validates the
// worker count up front.
func TestNegativeWorkersRejected(t *testing.T) {
	l := openLake(t, buildLake(t, synthEvents(4, 4, 1)))
	defer l.Close()
	q := Query{Workers: -2}
	calls := map[string]func() error{
		"ScanRows": func() error {
			_, err := l.ScanRows(q, func(*Rows) error { return nil })
			return err
		},
		"Scan": func() error {
			_, err := l.Scan(q, func(probe.Event) error { return nil })
			return err
		},
		"ScanUnordered": func() error {
			_, err := l.ScanUnordered(q, func(probe.Event) error { return nil })
			return err
		},
		"Stats": func() error {
			_, err := l.Stats(q)
			return err
		},
	}
	for name, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), "negative worker count") {
			t.Fatalf("%s: negative workers gave %v", name, err)
		}
	}
}

// TestStatsFooterFastPath pins the -stats short circuit: a query the
// footer can answer exactly decodes nothing, and the block taxonomy
// always partitions.
func TestStatsFooterFastPath(t *testing.T) {
	evs := synthEvents(9, 50, 7)
	l := openLake(t, buildLake(t, evs))
	defer l.Close()

	// Whole-lake count: every block fully covered, zero decode.
	st, err := l.Stats(Query{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksScanned != 0 || st.RowsDecoded != 0 {
		t.Fatalf("whole-lake stats decoded: %+v", st)
	}
	if st.BlocksCovered != st.BlocksTotal || st.BlocksTotal != len(l.blocks) {
		t.Fatalf("whole-lake stats not fully covered: %+v (blocks %d)", st, len(l.blocks))
	}
	if st.EventsMatched != l.Events() || st.EventsMatched != uint64(len(evs)) {
		t.Fatalf("whole-lake stats matched %d of %d events", st.EventsMatched, len(evs))
	}

	// Every grid query: Stats' match count equals the scan's, the
	// taxonomy partitions, and worker counts agree.
	tMax := evs[len(evs)-1].T
	partial := 0 // grid queries that had to decode: the pooled branch's parity cases
	for qi, q := range queryGrid(tMax) {
		want, err := l.ScanUnordered(q, func(probe.Event) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		var ref ScanStats
		for _, w := range workerCounts {
			st, err := l.Stats(q.WithWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if st.EventsMatched != want.EventsMatched {
				t.Fatalf("query %d workers=%d: Stats matched %d, scan matched %d", qi, w, st.EventsMatched, want.EventsMatched)
			}
			if st.BlocksPruned+st.BlocksCovered+st.BlocksScanned != st.BlocksTotal {
				t.Fatalf("query %d workers=%d: taxonomy does not partition: %+v", qi, w, st)
			}
			if w == workerCounts[0] {
				ref = st
				continue
			}
			if st != ref {
				t.Fatalf("query %d workers=%d stats %+v, workers=1 %+v", qi, w, st, ref)
			}
		}
		if ref.BlocksScanned > 0 {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no grid query cut a block; worker-count parity of the decode branch went untested")
	}
}
