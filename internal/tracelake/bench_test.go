package tracelake

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"optsync/internal/probe"
)

// benchLake is built once: ~1M synthetic events shaped like a real
// broadcast-storm trace, so the column mix (const kinds, clustered
// node ids, monotone-ish timestamps) matches what live runs produce.
var benchLake struct {
	once sync.Once
	data []byte
	evs  int
	tMax float64
}

func benchSetup(b *testing.B) (*Lake, int, float64) {
	benchLake.once.Do(func() {
		evs := synthEvents(32, 1000, 42)
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, ev := range evs {
			w.OnEvent(ev)
		}
		if err := w.Flush(); err != nil {
			panic(err)
		}
		benchLake.data = buf.Bytes()
		benchLake.evs = len(evs)
		benchLake.tMax = evs[len(evs)-1].T
	})
	l, err := OpenBytes(benchLake.data)
	if err != nil {
		b.Fatal(err)
	}
	return l, benchLake.evs, benchLake.tMax
}

// BenchmarkLakeScan/full is the single-core decode rate: a sequential
// ScanRows over every block, decoding every column of every event, with
// events/s as the headline metric. It is a developer benchmark, not a
// gate: no CI step runs it. To judge a decoder change, alternate it with
// the parent commit's binary on one host:
//
//	go test -run xxx -bench 'LakeScan/full' -count 6 ./internal/tracelake
//
// Workers is pinned to 1 throughout: a zero Workers means one per core
// (parallel scaling has its own family below).
func BenchmarkLakeScan(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		l, n, _ := benchSetup(b)
		defer l.Close()
		b.SetBytes(int64(len(benchLake.data)))
		b.ResetTimer()
		rows := uint64(0)
		for i := 0; i < b.N; i++ {
			st, err := l.ScanRows(Query{Workers: 1}, func(r *Rows) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			rows += st.RowsDecoded
		}
		if rows != uint64(n)*uint64(b.N) {
			b.Fatalf("decoded %d rows, want %d", rows, uint64(n)*uint64(b.N))
		}
		b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "events/s")
	})

	// pruned: a ~1%-selective time slice. The footer index should skip
	// almost every block, so ns/op should be far below full's; the run
	// fails if pruning skipped fewer than half the blocks.
	b.Run("pruned", func(b *testing.B) {
		l, _, tMax := benchSetup(b)
		defer l.Close()
		q := Query{Workers: 1}.WithTimeRange(tMax*0.495, tMax*0.505)
		b.ResetTimer()
		var last ScanStats
		for i := 0; i < b.N; i++ {
			st, err := l.ScanRows(q, func(r *Rows) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			last = st
		}
		b.StopTimer()
		if last.BlocksPruned == 0 || last.BlocksScanned*2 >= last.BlocksTotal {
			b.Fatalf("pruning ineffective: %+v", last)
		}
		b.ReportMetric(float64(last.BlocksScanned)/float64(last.BlocksTotal), "scanned-frac")
	})

	// merge: the ordered path — Scan, and Replay into any probe that is
	// not a probe.Folder — not floor-gated, tracked for trajectory.
	b.Run("merge", func(b *testing.B) {
		l, n, _ := benchSetup(b)
		defer l.Close()
		b.ResetTimer()
		events := uint64(0)
		for i := 0; i < b.N; i++ {
			st, err := l.Scan(Query{Workers: 1}, func(probe.Event) error { return nil })
			if err != nil {
				b.Fatal(err)
			}
			events += st.EventsMatched
		}
		if events != uint64(n)*uint64(b.N) {
			b.Fatalf("merged %d events, want %d", events, uint64(n)*uint64(b.N))
		}
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	})
}

// BenchmarkLakeScanParallel measures the multi-core full scan at fixed
// worker counts (run with -cpu 1,8 so both ends exist; no CI step runs
// it, and a speedup needs a host with that many cores): ScanRows at
// workers=N, and the ordered Scan, whose k-way merge draws one reader per
// type plus the shared prefetch readers, at ordered/workers=N. workers=1
// doubles as the overhead probe: it takes the exact serial path, so any
// gap vs BenchmarkLakeScan/full is harness noise, not pool cost.
// readers/op is how many decode readers one call holds.
func BenchmarkLakeScanParallel(b *testing.B) {
	scanRows := func(l *Lake, w int) (ScanStats, error) {
		return l.ScanRows(Query{Workers: w}, func(r *Rows) error { return nil })
	}
	scan := func(l *Lake, w int) (ScanStats, error) {
		return l.Scan(Query{Workers: w}, func(probe.Event) error { return nil })
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) { benchParallel(b, workers, scanRows) })
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("ordered/workers=%d", workers), func(b *testing.B) { benchParallel(b, workers, scan) })
	}
}

func benchParallel(b *testing.B, workers int, call func(*Lake, int) (ScanStats, error)) {
	l, n, _ := benchSetup(b)
	defer l.Close()
	b.SetBytes(int64(len(benchLake.data)))
	b.ResetTimer()
	rows := uint64(0)
	for i := 0; i < b.N; i++ {
		st, err := call(l, workers)
		if err != nil {
			b.Fatal(err)
		}
		rows += st.RowsDecoded
	}
	if rows != uint64(n)*uint64(b.N) {
		b.Fatalf("decoded %d rows, want %d", rows, uint64(n)*uint64(b.N))
	}
	b.ReportMetric(float64(rows)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(len(l.free)), "readers/op")
}

// BenchmarkLakeWrite tracks the ingest side (probe sink hot path).
func BenchmarkLakeWrite(b *testing.B) {
	evs := synthEvents(16, 50, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := NewWriter(&nullWriter{})
		for _, ev := range evs {
			w.OnEvent(ev)
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(evs)*b.N)/b.Elapsed().Seconds(), "events/s")
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }
