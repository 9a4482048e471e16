package tracelake

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/harness"
	"optsync/internal/probe"
)

// recordRun records a small but eventful run — partition markers, a late
// joiner, a silent fault, three blocks each of sends and deliveries —
// into a lake image, on the serial engine (shards = 1) or the sharded one.
func recordRun(t testing.TB, shards int) []byte {
	t.Helper()
	spec := harness.Spec{
		Algo: harness.AlgoAuth,
		Params: bounds.Params{N: 16, F: 3, Variant: bounds.Auth, Rho: 1e-4,
			DMin: 0.002, DMax: 0.01, Period: 1.0, InitialSkew: 0.005}.WithDefaults(),
		FaultyCount: 1, Attack: harness.AttackSilent, Seed: 17, Horizon: 24, Shards: shards,
		Partitions: []harness.Partition{{At: 5, Heal: 9, LeftSize: 3}},
		StartAt:    map[int]float64{6: 3.5},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if _, err := harness.RunObserved(context.Background(), spec, func(_ harness.Spec, bus *probe.Bus) {
		bus.Attach(w)
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func builtins() []probe.Collector {
	return []probe.Collector{probe.NewSkewStats(), probe.NewSpreadStats(), probe.NewMsgStats(),
		probe.NewReintegrationWindows(), probe.NewSeries()}
}

// randomQuery draws a query whose windows fall inside the recorded
// ranges often enough to cut blocks mid-run, and outside them often
// enough to match nothing.
func randomQuery(rng *rand.Rand, tMax float64, rounds, nodes int32) Query {
	var q Query
	for _, typ := range probe.AllTypes() {
		if rng.Intn(3) == 0 {
			q.Types = append(q.Types, typ)
		}
	}
	if rng.Intn(3) == 0 {
		q = q.WithNode(rng.Int31n(nodes+2) - 1)
	}
	if rng.Intn(2) == 0 {
		lo := rng.Float64() * tMax * 1.1
		q = q.WithTimeRange(lo, lo+(rng.Float64()-0.1)*tMax/2)
	}
	if rng.Intn(3) == 0 {
		lo := rng.Int31n(rounds + 2)
		q = q.WithRounds(lo, lo+rng.Int31n(4)-1)
	}
	return q
}

// foldSpy is a Folder that only records which way it was fed.
type foldSpy struct{ events, folds, rows int }

func (s *foldSpy) OnEvent(probe.Event)     { s.events++ }
func (s *foldSpy) Fold(b *probe.Batch)     { s.folds++; s.rows += b.Len() }
func (s *foldSpy) Name() string            { return "spy" }
func (s *foldSpy) Types() []probe.Type     { return []probe.Type{probe.TypePulse, probe.TypeMessageSent} }
func (s *foldSpy) Aggregate() []probe.Stat { return nil }

// TestReplayFoldMatchesOrdered is the differential oracle of the fold
// path: for the match-all query and 200 seeded ones, on a serially and a
// sharded-recorded lake and a long synthetic one, Replay into the built-in collectors (folded
// below the merge) leaves them in exactly the state Replay leaves the
// same collectors in when they hide behind probe.Func — which forces the
// ordered, event-at-a-time path — with the same count and error, at
// every worker count.
func TestReplayFoldMatchesOrdered(t *testing.T) {
	corpora := []struct {
		name string
		data []byte
	}{
		{"shards=1", recordRun(t, 1)},
		{"shards=8", recordRun(t, 8)},
		// Two nodes for 4200 rounds: the order-sensitive types (skew
		// samples for P², pulses) span several blocks here.
		{"synthetic", buildLake(t, synthEvents(2, 4200, 5))},
	}
	for ci, c := range corpora {
		name := c.name
		l, err := OpenBytes(c.data)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		var tMax float64
		var rounds int32
		for i := range l.blocks {
			tMax = max(tMax, l.blocks[i].tMax)
			if l.blocks[i].typ == probe.TypePulse {
				rounds = max(rounds, l.blocks[i].roundMax)
			}
		}
		if len(l.blocks) < 12 {
			t.Fatalf("%s: only %d blocks; the corpus no longer spans several per type", name, len(l.blocks))
		}

		rng := rand.New(rand.NewSource(int64(ci)))
		queries := []Query{{}}
		for len(queries) < 201 {
			queries = append(queries, randomQuery(rng, tMax, rounds, 16))
		}
		empty, partial := 0, 0
		for qi, q := range queries {
			ordered := builtins()
			hidden := make([]probe.Probe, len(ordered))
			for i, c := range ordered {
				hidden[i] = probe.Func(c.OnEvent)
			}
			wantN, wantErr := l.Replay(q.WithWorkers(1), hidden...)
			if wantErr != nil {
				t.Fatalf("%s query %d: ordered replay: %v", name, qi, wantErr)
			}
			if wantN == 0 {
				empty++
			}
			if st, _ := l.Stats(q); st.BlocksScanned > 0 {
				partial++
			}
			for _, w := range workerCounts {
				folded := builtins()
				probes := make([]probe.Probe, len(folded))
				for i, c := range folded {
					probes[i] = c
				}
				n, err := l.Replay(q.WithWorkers(w), probes...)
				if n != wantN || err != nil {
					t.Fatalf("%s query %d (%+v) workers=%d: folded replay = %d, %v; ordered = %d", name, qi, q, w, n, err, wantN)
				}
				for i := range folded {
					if !reflect.DeepEqual(folded[i], ordered[i]) {
						t.Fatalf("%s query %d (%+v) workers=%d: %s diverges\n folded:  %v\n ordered: %v",
							name, qi, q, w, folded[i].Name(), folded[i].Aggregate(), ordered[i].Aggregate())
					}
				}
			}
		}
		if empty < 5 || partial < 50 || empty > 150 {
			t.Fatalf("%s: %d empty and %d block-cutting queries of %d; retune randomQuery", name, empty, partial, len(queries))
		}

		// All-or-nothing: four folders fold; add one probe that cannot and
		// all five are fed events, in recorded order.
		spy := &foldSpy{}
		n, err := l.Replay(Query{}, probe.NewSkewStats(), probe.NewSpreadStats(), probe.NewMsgStats(), spy)
		if err != nil || n != int(l.Events()) || spy.events != 0 || spy.folds == 0 {
			t.Fatalf("%s: all-folder replay = %d, %v, spy %+v", name, n, err, spy)
		}
		subscribed := spy.rows
		spy = &foldSpy{}
		var seen []probe.Event
		n, err = l.Replay(Query{}, probe.NewSkewStats(), probe.NewSpreadStats(), probe.NewMsgStats(), spy,
			probe.Func(func(ev probe.Event) { seen = append(seen, ev) }))
		if err != nil || n != int(l.Events()) || spy.folds != 0 || spy.events != subscribed {
			t.Fatalf("%s: mixed replay = %d, %v, spy %+v (want %d events, no folds)", name, n, err, spy, subscribed)
		}
		if want := runScan(l, Query{}, true).events; !reflect.DeepEqual(seen, want) {
			t.Fatalf("%s: mixed replay did not deliver the recorded order", name)
		}
	}
}

// TestReplayFoldReproducesLive: a run's collectors, live, and fresh ones
// replayed from its lake through the fold path agree to the bit.
func TestReplayFoldReproducesLive(t *testing.T) {
	evs := synthEvents(9, 500, 12)
	live, replayed := builtins(), builtins()
	var bus probe.Bus
	probes := make([]probe.Probe, len(replayed))
	for i := range live {
		bus.AttachCollector(live[i])
		probes[i] = replayed[i]
	}
	for _, ev := range evs {
		bus.Emit(ev)
	}
	l := openLake(t, buildLake(t, evs))
	defer l.Close()
	if n, err := l.Replay(Query{}, probes...); err != nil || n != len(evs) {
		t.Fatalf("Replay = %d, %v", n, err)
	}
	if !reflect.DeepEqual(live, replayed) {
		t.Fatal("replayed collectors differ from the live ones")
	}
}

// TestScanMergesByRuns drives the run-at-a-time merge through the
// interleavings that could break it, against the brute-force reference
// (the input is in seq order by construction): runs of length one, a run
// spanning three blocks, a row filter that breaks a run in its middle,
// and a callback error in the middle of a run.
func TestScanMergesByRuns(t *testing.T) {
	var evs []probe.Event
	add := func(typ probe.Type, from, to int32) {
		evs = append(evs, probe.Event{Type: typ, From: from, To: to, Round: int32(len(evs) / 1000),
			T: float64(len(evs)) * 1e-3, Value: float64(len(evs) % 7)})
	}
	for i := 0; i < 3000; i++ { // three types alternating: every run has length 1
		add([]probe.Type{probe.TypePulse, probe.TypeResync, probe.TypeSkewSample}[i%3], int32(i%5), -1)
	}
	for i := 0; i < 3*blockRows+10; i++ { // one run across three block boundaries
		add(probe.TypeMessageDelivered, int32(i%5), int32(i%3))
	}
	for i := 0; i < 600; i++ { // runs of 20 whose middle rows name other nodes
		typ := probe.TypeMessageSent
		if (i/20)%2 == 1 {
			typ = probe.TypeMessageDropLink
		}
		to := int32(3)
		if i%20 >= 8 && i%20 < 13 {
			to = 1
		}
		add(typ, 2, to)
	}
	l := openLake(t, buildLake(t, evs))
	defer l.Close()

	queries := []Query{
		{},
		Query{}.WithNode(3), // breaks runs in their middle
		Query{}.WithTypes(probe.TypeMessageDelivered, probe.TypePulse),
		Query{}.WithTimeRange(2.5, 3.0+float64(2*blockRows)*1e-3), // starts inside the alternation, ends inside the long run
		Query{}.WithNode(1).WithTypes(probe.TypeMessageSent, probe.TypeMessageDropLink),
	}
	sentinel := errors.New("stop")
	for qi, q := range queries {
		want := filterRef(evs, q)
		if len(want) == 0 {
			t.Fatalf("query %d matches nothing", qi)
		}
		// Stop on the first row, in the middle of the stream, on the last
		// row, and not at all.
		for _, stopAt := range []int{1, len(want) / 2, len(want), 0} {
			var ref scanOutcome
			for _, w := range workerCounts {
				var got scanOutcome
				st, err := l.Scan(q.WithWorkers(w), func(ev probe.Event) error {
					got.events = append(got.events, ev)
					if len(got.events) == stopAt {
						return sentinel
					}
					return nil
				})
				got.stats = st
				if (stopAt > 0) != errors.Is(err, sentinel) {
					t.Fatalf("query %d stop %d workers=%d: error %v", qi, stopAt, w, err)
				}
				delivered := len(want)
				if stopAt > 0 {
					delivered = stopAt
				}
				if !reflect.DeepEqual(got.events, want[:delivered]) {
					t.Fatalf("query %d stop %d workers=%d: delivered %d events, not the first %d of the reference",
						qi, stopAt, w, len(got.events), delivered)
				}
				if st.EventsMatched != uint64(delivered) {
					t.Fatalf("query %d stop %d workers=%d: EventsMatched %d, delivered %d", qi, stopAt, w, st.EventsMatched, delivered)
				}
				if w == workerCounts[0] {
					ref = got
				} else if got.stats != ref.stats {
					t.Fatalf("query %d stop %d: workers=%d stats %+v, workers=1 %+v", qi, stopAt, w, got.stats, ref.stats)
				}
			}
		}
	}
}

// TestLakeWarmScanAllocs: decode buffers recycle per lake, so once one
// call has warmed an open lake, a full Scan, ScanRows, partial Stats and
// Replay allocate bookkeeping only — no row buffers (a cold full ordered
// scan of this corpus allocates about 1 MB of them) — and the free list
// holds no more readers than the widest single scan took.
func TestLakeWarmScanAllocs(t *testing.T) {
	evs := synthEvents(16, 100, 9)
	data := buildLake(t, evs)
	tMax := evs[len(evs)-1].T
	partialQ := Query{}.WithTimeRange(tMax*0.3, tMax*0.6)
	skew, msgs := probe.NewSkewStats(), probe.NewMsgStats()
	calls := []struct {
		name string
		run  func(l *Lake, w int) error
	}{
		{"Scan", func(l *Lake, w int) error {
			_, err := l.Scan(Query{Workers: w}, func(probe.Event) error { return nil })
			return err
		}},
		{"ScanRows", func(l *Lake, w int) error {
			_, err := l.ScanRows(Query{Workers: w}, func(*Rows) error { return nil })
			return err
		}},
		{"Stats", func(l *Lake, w int) error {
			st, err := l.Stats(partialQ.WithWorkers(w))
			if err == nil && st.BlocksScanned == 0 {
				err = errors.New("the partial query decoded nothing")
			}
			return err
		}},
		{"Replay", func(l *Lake, w int) error {
			_, err := l.Replay(Query{Workers: w}, skew, msgs)
			return err
		}},
	}
	// Budgets per call. A warm call allocates its plan's block indices, the
	// pool with its streams and slots, cursors and closures, and at
	// workers > 1 the worker goroutines, the job channel and the spare
	// list: on this corpus at most 29 objects / 2.1 KB (Scan at two
	// workers), 14 / 1.2 KB for the one-stream reads.
	const maxObjects, maxBytes = 100, 8 << 10

	for _, w := range []int{1, 2} {
		widest := 0
		for _, c := range calls {
			l, err := OpenBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.run(l, w); err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, w, err)
			}
			widest = max(widest, len(l.free)) // a fresh lake's list is what that one scan took
		}

		l, err := OpenBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := calls[0].run(l, w); err != nil { // the warm-up
			t.Fatal(err)
		}
		for _, c := range calls {
			if err := c.run(l, w); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const rounds = 5
			for i := 0; i < rounds; i++ {
				if err := c.run(l, w); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			objects := (after.Mallocs - before.Mallocs) / rounds
			bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
			t.Logf("%-8s workers=%d: %d objects, %d bytes per warm call", c.name, w, objects, bytes)
			if objects > maxObjects || bytes > maxBytes {
				t.Errorf("%s workers=%d: a warm call allocates %d objects / %d bytes, budget %d / %d",
					c.name, w, objects, bytes, maxObjects, maxBytes)
			}
			if len(l.free) > widest {
				t.Errorf("%s workers=%d: free list holds %d readers, the widest single scan took %d", c.name, w, len(l.free), widest)
			}
		}
	}
}

// TestReadersSizedFromFooter: getReader hands out the smallest free
// reader that fits, and grows the smallest one only when none fits; a
// stream draws a reader sized to the largest block among its own admitted
// footer entries, and a shared prefetch reader fits the largest block of
// the whole plan, so no reader is sized for a block the plan pruned.
func TestReadersSizedFromFooter(t *testing.T) {
	sized := func(n int) *blockReader {
		br := &blockReader{}
		br.reserve(n)
		return br
	}
	small, mid, big := sized(100), sized(2000), sized(blockRows)
	l := &Lake{}
	l.putReader(small, mid, big)
	for _, step := range []struct {
		rows int
		want *blockReader
	}{{1500, mid}, {50, small}, {blockRows, big}} {
		if got := l.getReader(step.rows); got != step.want {
			t.Fatalf("getReader(%d) took the %d-row reader, want the %d-row one",
				step.rows, cap(got.rows.Seq), cap(step.want.rows.Seq))
		}
	}
	l.putReader(mid, small)
	if got := l.getReader(3000); got != small || cap(got.rows.Seq) != 3000 {
		t.Fatalf("getReader(3000) with none fitting gave a %d-row reader (the small one: %v), want the small one grown to 3000",
			cap(got.rows.Seq), got == small)
	}
	if got := l.getReader(7); got != mid || len(l.free) != 0 {
		t.Fatalf("getReader(7) did not take the last free reader")
	}
	if got := l.getReader(7); cap(got.rows.Seq) != 7 {
		t.Fatalf("a new reader holds %d rows, want 7", cap(got.rows.Seq))
	}

	evs := synthEvents(16, 100, 9)
	data := buildLake(t, evs)
	tMax := evs[len(evs)-1].T
	for _, q := range []Query{
		{},
		Query{}.WithTypes(probe.TypeMessageDropLink),
		Query{}.WithTimeRange(tMax*0.3, tMax*0.6),
		Query{}.WithTypes(probe.TypePulse, probe.TypeMessageSent).WithNode(3),
	} {
		for _, w := range []int{1, 2} {
			l := openLake(t, data)
			mask := q.typeMask()
			largest := map[probe.Type]int{}
			for i := range l.blocks {
				if m := &l.blocks[i]; q.admitsBlock(&mask, m) {
					largest[m.typ] = max(largest[m.typ], int(m.count))
				}
			}
			whole := 0
			for _, n := range largest {
				whole = max(whole, n)
			}
			if _, err := l.ScanRows(q.WithWorkers(w), func(r *Rows) error {
				if cap(r.Seq) != whole {
					t.Errorf("%+v: ScanRows decoded into a %d-row reader, its largest admitted block is %d rows", q, cap(r.Seq), whole)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			l = openLake(t, data)
			if _, err := l.Scan(q.WithWorkers(w), func(probe.Event) error { return nil }); err != nil {
				t.Fatal(err)
			}
			for _, br := range l.free {
				n := cap(br.rows.Seq)
				if w == 1 && largest[br.rows.Type] != n {
					t.Errorf("%+v: Scan drew a %d-row reader for %v, whose largest admitted block is %d rows",
						q, n, br.rows.Type, largest[br.rows.Type])
				}
				// Past one worker a reader may serve any stream: a shared
				// prefetch reader fits the largest admitted block, no more.
				if n > whole {
					t.Errorf("%+v workers=%d: Scan drew a %d-row reader, the largest admitted block is %d rows", q, w, n, whole)
				}
			}
		}
	}

	// An analysis session at one worker: the ordered scan leaves readers
	// of several sizes behind, and no later call reallocates one of them.
	l = openLake(t, data)
	skew, msgs := probe.NewSkewStats(), probe.NewMsgStats()
	arrays := map[*blockReader]*uint64{}
	for i, call := range []func() error{
		func() error { _, err := l.Scan(Query{Workers: 1}, func(probe.Event) error { return nil }); return err },
		func() error { _, err := l.ScanRows(Query{Workers: 1}, func(*Rows) error { return nil }); return err },
		func() error {
			q := Query{Workers: 1}.WithTimeRange(tMax*0.4, tMax*0.5).WithNode(5)
			_, err := l.Scan(q, func(probe.Event) error { return nil })
			return err
		},
		func() error { _, err := l.Replay(Query{Workers: 1}, skew, msgs); return err },
	} {
		if err := call(); err != nil {
			t.Fatal(err)
		}
		for _, br := range l.free {
			seq := &br.rows.Seq[0]
			if was, ok := arrays[br]; ok && was != seq {
				t.Errorf("call %d reallocated a %d-row reader", i, cap(br.rows.Seq))
			}
			arrays[br] = seq
		}
	}
}

// TestConcurrentScansShareReaders: scans of one lake may run
// concurrently, and they now share the lake's free list of decode
// buffers. Several goroutines mixing every entry point and both the
// serial and the pooled decode must each see what a lone scan sees (run
// under -race, this is the free list's data-race witness).
func TestConcurrentScansShareReaders(t *testing.T) {
	evs := synthEvents(8, 60, 3)
	l := openLake(t, buildLake(t, evs))
	defer l.Close()
	wantMsgs := probe.NewMsgStats()
	for _, ev := range evs {
		wantMsgs.OnEvent(ev)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				q := Query{Workers: 1 + (g+i)%2}
				if got := runScan(l, q, true); got.errStr != "" || !reflect.DeepEqual(got.events, evs) {
					t.Errorf("goroutine %d: Scan diverged (%d events, err %q)", g, len(got.events), got.errStr)
				}
				if st, err := l.ScanRows(q, func(*Rows) error { return nil }); err != nil || st.RowsDecoded != uint64(len(evs)) {
					t.Errorf("goroutine %d: ScanRows = %+v, %v", g, st, err)
				}
				msgs := probe.NewMsgStats()
				if n, err := l.Replay(q, msgs); err != nil || n != len(evs) || !reflect.DeepEqual(msgs, wantMsgs) {
					t.Errorf("goroutine %d: Replay = %d, %v, %v", g, n, err, msgs.Aggregate())
				}
			}
		}(g)
	}
	wg.Wait()
}
