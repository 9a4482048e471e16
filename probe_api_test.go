package optsync

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// collectors returns one fresh instance of every built-in collector.
func collectors() []Collector {
	return []Collector{
		NewSkewCollector(), NewSpreadCollector(), NewMsgCollector(),
		NewReintegrationCollector(), NewSeriesCollector(),
	}
}

// aggregates snapshots every collector's aggregate for exact comparison.
func aggregates(cols []Collector) map[string][]Stat {
	out := make(map[string][]Stat, len(cols))
	for _, c := range cols {
		out[c.Name()] = c.Aggregate()
	}
	return out
}

func TestWithProbeAndCollector(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	var msgEvents atomic.Int64
	msgs := NewMsgCollector()
	skew := NewSkewCollector()
	res, err := Run(context.Background(), spec,
		WithProbe(ProbeFunc(func(Event) { msgEvents.Add(1) }), MessageEventTypes()...),
		WithCollector(msgs),
		WithCollector(skew),
	)
	if err != nil {
		t.Fatal(err)
	}
	if msgEvents.Load() == 0 {
		t.Fatal("message probe saw nothing")
	}
	if msgs.Sent() != res.TotalMsgs {
		t.Fatalf("collector sent %d != result %d", msgs.Sent(), res.TotalMsgs)
	}
	if skew.Max() != res.MaxSkew || skew.P95() != res.SkewP95 {
		t.Fatalf("skew collector (max %v, p95 %v) disagrees with result (max %v, p95 %v)",
			skew.Max(), skew.P95(), res.MaxSkew, res.SkewP95)
	}
}

// TestTraceReplayRoundTrip is the row trace's acceptance contract:
// export a run's JSONL trace, replay it through fresh collectors, and
// require bit-identical aggregates.
func TestTraceReplayRoundTrip(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	// A late joiner and a partition window exercise every event type.
	spec.StartAt = map[int]float64{0: 3.25}
	spec.Partitions = []Partition{{At: 2, Heal: 4, LeftSize: 2}}

	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	live := collectors()
	opts := []Option{WithTrace(tw)}
	for _, c := range live {
		opts = append(opts, WithCollector(c))
	}
	if _, err := Run(context.Background(), spec, opts...); err != nil {
		t.Fatal(err)
	}
	if tw.Events() == 0 {
		t.Fatal("trace recorded no events")
	}

	replayed := collectors()
	probes := make([]Probe, len(replayed))
	for i, c := range replayed {
		probes[i] = c
	}
	n, err := ReplayTrace(bytes.NewReader(buf.Bytes()), probes...)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(n) != tw.Events() {
		t.Fatalf("replayed %d of %d recorded events", n, tw.Events())
	}
	liveAgg, replayAgg := aggregates(live), aggregates(replayed)
	if !reflect.DeepEqual(liveAgg, replayAgg) {
		t.Fatalf("replay aggregates diverged\n live   %+v\n replay %+v", liveAgg, replayAgg)
	}
}

// TestLakeTraceReplayRoundTrip is the lake acceptance contract at the
// public-API layer: a run recorded with WithLakeTrace, replayed from the
// container through fresh collectors, reproduces the live aggregates
// exactly — including when the recording run used the sharded engine.
func TestLakeTraceReplayRoundTrip(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	// A late joiner and a partition window exercise every event type.
	spec.StartAt = map[int]float64{0: 3.25}
	spec.Partitions = []Partition{{At: 2, Heal: 4, LeftSize: 2}}

	for _, shards := range []int{1, 8} {
		spec.Shards = shards
		var buf bytes.Buffer
		lw := NewLakeWriter(&buf)
		live := collectors()
		opts := []Option{WithLakeTrace(lw)}
		for _, c := range live {
			opts = append(opts, WithCollector(c))
		}
		if _, err := Run(context.Background(), spec, opts...); err != nil {
			t.Fatal(err)
		}
		if lw.Events() == 0 {
			t.Fatal("lake recorded no events")
		}

		path := filepath.Join(t.TempDir(), "run.lake")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}

		// File-path layer: ReplayLake with a match-all query.
		replayed := collectors()
		probes := make([]Probe, len(replayed))
		for i, c := range replayed {
			probes[i] = c
		}
		n, err := ReplayLake(path, LakeQuery{}, probes...)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(n) != lw.Events() {
			t.Fatalf("shards=%d: replayed %d of %d recorded events", shards, n, lw.Events())
		}
		liveAgg, replayAgg := aggregates(live), aggregates(replayed)
		if !reflect.DeepEqual(liveAgg, replayAgg) {
			t.Fatalf("shards=%d: lake replay aggregates diverged\n live   %+v\n replay %+v",
				shards, liveAgg, replayAgg)
		}

		// In-memory layer: OpenLakeBytes sees the same stream.
		l, err := OpenLakeBytes(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		memReplayed := collectors()
		memProbes := make([]Probe, len(memReplayed))
		for i, c := range memReplayed {
			memProbes[i] = c
		}
		if m, err := l.Replay(LakeQuery{}, memProbes...); err != nil || m != n {
			t.Fatalf("shards=%d: OpenLakeBytes replay: %d events, err %v (want %d, nil)", shards, m, err, n)
		}
		if got := aggregates(memReplayed); !reflect.DeepEqual(liveAgg, got) {
			t.Fatalf("shards=%d: in-memory replay aggregates diverged", shards)
		}
		l.Close()
	}
}

// TestQueryLakePushdown checks the one-shot query path end to end: a
// typed, time-bounded query returns exactly the events a full replay
// would filter to, and the footer index pruned at least one block.
func TestQueryLakePushdown(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	var buf bytes.Buffer
	lw := NewLakeWriter(&buf)
	if _, err := Run(context.Background(), spec, WithLakeTrace(lw)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.lake")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	q := LakeQuery{}.WithTypes(EventSkewSample).WithTimeRange(0, spec.Horizon/2)
	var want int
	if _, err := QueryLake(path, LakeQuery{}, func(ev Event) error {
		if ev.Type == EventSkewSample && ev.T <= spec.Horizon/2 {
			want++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	got := 0
	st, err := QueryLake(path, q, func(ev Event) error {
		if ev.Type != EventSkewSample || ev.T > spec.Horizon/2 {
			t.Fatalf("query leaked event %+v", ev)
		}
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != want || got == 0 {
		t.Fatalf("query matched %d events, reference filter %d", got, want)
	}
	if uint64(got) != st.EventsMatched {
		t.Fatalf("stats count %d != callback count %d", st.EventsMatched, got)
	}
	if st.BlocksPruned == 0 {
		t.Fatalf("typed query pruned nothing: %+v", st)
	}
}

// TestBatchSharedProbeIsSerialized: one unguarded collector over a
// parallel batch must tally every run exactly once (the WithProbe
// wrapper serializes concurrent calls; -race proves the absence of
// races).
func TestBatchSharedProbeIsSerialized(t *testing.T) {
	specs := testSpecs(t, 12)
	msgs := NewMsgCollector()
	shared := 0 // deliberately unguarded shared state
	results, err := RunBatch(context.Background(), specs,
		WithWorkers(8),
		WithCollector(msgs),
		WithProbe(ProbeFunc(func(Event) { shared++ }), EventNodeBoot),
	)
	if err != nil {
		t.Fatal(err)
	}
	var wantSent uint64
	for _, res := range results {
		wantSent += res.TotalMsgs
	}
	if msgs.Sent() != wantSent {
		t.Fatalf("batch collector sent %d, runs total %d", msgs.Sent(), wantSent)
	}
	if wantBoots := len(specs) * specs[0].Params.N; shared != wantBoots {
		t.Fatalf("shared probe counted %d boots, want %d", shared, wantBoots)
	}
}

// TestProgressAndSinkConcurrencyContract hammers a parallel batch whose
// progress callback and sink both mutate unguarded shared state — the
// documented contract is that both are serialized under the batch lock.
// Run under -race (CI does) this test is the proof.
func TestProgressAndSinkConcurrencyContract(t *testing.T) {
	specs := testSpecs(t, 16)
	type row struct {
		index int
		skew  float64
	}
	var (
		progressed []row  // mutated from the progress callback
		emitted    []Spec // mutated from the sink
	)
	sink := sinkFunc(func(res Result) error {
		emitted = append(emitted, res.Spec)
		return nil
	})
	_, err := RunBatch(context.Background(), specs,
		WithWorkers(8),
		WithSeeds(2),
		WithProgress(func(ev ProgressEvent) {
			progressed = append(progressed, row{ev.Index, ev.Result.MaxSkew})
		}),
		WithSink(sink),
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(progressed) != 32 || len(emitted) != 32 {
		t.Fatalf("progress %d, sink %d, want 32 each", len(progressed), len(emitted))
	}
	// Sink order is input order even under 8 workers.
	for i, spec := range emitted {
		if want := specs[i/2].Seed + int64(i%2); spec.Seed != want {
			t.Fatalf("sink row %d has seed %d, want %d (input order broken)", i, spec.Seed, want)
		}
	}
}

// sinkFunc adapts a function to the Sink interface.
type sinkFunc func(Result) error

func (f sinkFunc) Write(res Result) error { return f(res) }
func (f sinkFunc) Flush() error           { return nil }

// TestTraceWriterErrorSurfaces: a trace writer whose underlying writer
// fails must surface the error from Run's flush path.
func TestTraceWriterErrorSurfaces(t *testing.T) {
	spec := testSpecs(t, 1)[0]
	tw := NewTraceWriter(failingWriter{})
	if _, err := Run(context.Background(), spec, WithTrace(tw)); err == nil {
		t.Fatal("trace I/O error vanished")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

var errWriteFailed = errTrace("trace write failed")

type errTrace string

func (e errTrace) Error() string { return string(e) }
