package tracelake

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"optsync/internal/probe"
)

// workerCounts is the property-test grid: serial, the smallest real
// pool, and a pool wider than most CI runners have cores (so workers
// outnumber in-flight blocks and the free-list bound is exercised).
var workerCounts = []int{1, 2, 8}

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
	var o scanOutcome
	scan := l.ScanUnordered
	if ordered {
		scan = l.Scan
	}
	st, err := scan(q, func(ev probe.Event) error {
		o.events = append(o.events, ev)
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
// at workers 1, 2, and 8. Run under -race in CI, this also shakes the
// pool for data races.
func TestParallelScanByteIdentical(t *testing.T) {
	evs := synthEvents(10, 60, 5)
	data := buildLake(t, evs)
	tMax := evs[len(evs)-1].T
	for qi, base := range queryGrid(tMax) {
		for _, ordered := range []bool{false, true} {
			var ref scanOutcome
			for _, w := range workerCounts {
				l, err := OpenBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				q := base.WithWorkers(w)
				got := runScan(l, q, ordered)
				l.Close()
				if got.errStr != "" {
					t.Fatalf("query %d ordered=%v workers=%d: %s", qi, ordered, w, got.errStr)
				}
				if len(got.events) == 0 {
					t.Fatalf("query %d matched nothing; widen the grid", qi)
				}
				if w == workerCounts[0] {
					ref = got
					continue
				}
				if !reflect.DeepEqual(got.events, ref.events) {
					t.Fatalf("query %d ordered=%v: workers=%d event stream diverges from workers=1", qi, ordered, w)
				}
				if got.stats != ref.stats {
					t.Fatalf("query %d ordered=%v: workers=%d stats %+v, workers=1 %+v", qi, ordered, w, got.stats, ref.stats)
				}
			}
		}
	}
}

// TestParallelScanErrorParity: corruption and callback aborts must
// surface identically at every worker count — same error text, same
// number of events delivered before the stop. In-order delivery makes
// the parallel scan's failure behavior indistinguishable from serial.
func TestParallelScanErrorParity(t *testing.T) {
	evs := synthEvents(8, 40, 11)
	good := buildLake(t, evs)

	t.Run("corrupt_block", func(t *testing.T) {
		data := append([]byte(nil), good...)
		l0, err := OpenBytes(good)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a payload byte in a middle block so several healthy blocks
		// decode first on other workers.
		mid := l0.blocks[len(l0.blocks)/2]
		l0.Close()
		data[int(mid.offset)+blockHeaderSize+3] ^= 0x10
		var ref scanOutcome
		for _, w := range workerCounts {
			l, err := OpenBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			got := runScan(l, Query{Workers: w}, true)
			l.Close()
			if got.errStr == "" {
				t.Fatalf("workers=%d: corrupt block scanned clean", w)
			}
			if w == workerCounts[0] {
				ref = got
				continue
			}
			if got.errStr != ref.errStr {
				t.Fatalf("workers=%d error %q, workers=1 %q", w, got.errStr, ref.errStr)
			}
			if len(got.events) != len(ref.events) {
				t.Fatalf("workers=%d delivered %d events before failing, workers=1 %d", w, len(got.events), len(ref.events))
			}
		}
	})

	t.Run("callback_abort", func(t *testing.T) {
		sentinel := errors.New("stop here")
		var refSeen int
		for _, w := range workerCounts {
			l, err := OpenBytes(good)
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			_, err = l.ScanUnordered(Query{Workers: w}, func(probe.Event) error {
				seen++
				if seen == 1000 {
					return sentinel
				}
				return nil
			})
			l.Close()
			if !errors.Is(err, sentinel) {
				t.Fatalf("workers=%d: abort error lost: %v", w, err)
			}
			if w == workerCounts[0] {
				refSeen = seen
				continue
			}
			if seen != refSeen {
				t.Fatalf("workers=%d saw %d events before abort, workers=1 saw %d", w, seen, refSeen)
			}
		}
	})
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
