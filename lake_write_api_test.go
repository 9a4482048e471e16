package optsync

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// lanTestParams is bench/w_run.go's operating point (the benchmark is its
// own module, so the pins below restate it): a LAN with drift 1e-4,
// delays in [2 ms, 10 ms], a 1 s period and 5 ms initial skew.
func lanTestParams(n, f int, v Variant) Params {
	return Params{
		N: n, F: f, Variant: v,
		Rho:  Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period: 1.0, InitialSkew: 0.005,
	}.WithDefaults()
}

// TestLakeFilePins holds whole lake files to the bytes the writer
// produced before its encoder was rewritten (captured at 7c699aa): a
// codec tie-break, a width or an offset that moves shows here first.
func TestLakeFilePins(t *testing.T) {
	if testing.Short() {
		t.Skip("records two full benchmark runs")
	}
	pins := []struct {
		name string
		spec Spec
		size int
		sum  string
	}{
		{"lakeSpec100", Spec{
			Algo: AlgoAuth, Params: lanTestParams(32, 15, Auth),
			FaultyCount: 15, Attack: AttackSilent, Horizon: 100,
		}, 2944573, "aa87c0889ee5d4e9230ee6c44cccf05272eee5478968425b02d5dea5f3e08c45"},
		{"mesh256Prim", Spec{
			Algo: AlgoPrim, Params: lanTestParams(256, 85, Primitive),
			FaultyCount: 85, Attack: AttackSilent, Horizon: 8,
		}, 7700864, "9ea08560eb5af3cc23e662f814d317cfe3762bc02248f456ab0333c01d52eb9a"},
	}
	for _, p := range pins {
		t.Run(p.name, func(t *testing.T) {
			p.spec.Seed = 4242
			var buf bytes.Buffer
			if _, err := Run(context.Background(), p.spec, WithLakeTrace(NewLakeWriter(&buf))); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); buf.Len() != p.size || got != p.sum {
				t.Fatalf("lake is %d bytes, sha256 %s\nwant  %d bytes, sha256 %s", buf.Len(), got, p.size, p.sum)
			}
		})
	}
}

// TestRunFlushesTracesOnError: WithTrace and WithLakeTrace promise a
// flush before Run returns, and a cancelled run is a return. The lake of
// a run that was cut short opens and holds every event the writer
// counted, the row trace keeps its buffered tail, the error is still the
// context's, and nothing the writer started is left running. The run is
// cancelled from a probe, so where it stops (the end of the first of
// harness's context-check slices, ~110 000 events in) does not depend on
// the host's speed.
func TestRunFlushesTracesOnError(t *testing.T) {
	spec := Spec{
		Algo: AlgoAuth, Params: lanTestParams(32, 15, Auth),
		FaultyCount: 15, Attack: AttackSilent, Horizon: 400, Seed: 7,
	}
	baseline := runtime.NumGoroutine()

	var lake, rows bytes.Buffer
	lw := NewLakeWriter(&lake)
	tw := NewTraceWriter(&rows)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	_, err := Run(ctx, spec, WithLakeTrace(lw), WithTrace(tw),
		WithProbe(ProbeFunc(func(Event) {
			if seen++; seen == 20000 {
				cancel()
			}
		})))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want the context's error", err)
	}
	if lw.Events() < 20000 {
		t.Fatalf("the lake writer saw %d events, the probe beside it 20000", lw.Events())
	}

	l, err := OpenLakeBytes(lake.Bytes())
	if err != nil {
		t.Fatalf("the cancelled run's lake does not open: %v", err)
	}
	defer l.Close()
	if l.Events() != lw.Events() {
		t.Fatalf("lake holds %d events, the writer recorded %d", l.Events(), lw.Events())
	}
	n, err := ReplayTrace(&rows)
	if err != nil {
		t.Fatalf("the cancelled run's row trace does not replay: %v", err)
	}
	if uint64(n) != lw.Events() {
		t.Fatalf("row trace holds %d events, the lake writer saw %d", n, lw.Events())
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run returned, %d before it started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLakeRecordingAllocBudget: recording the benchmark's lake-record run
// allocates at most 2.0 MB inside the lake writer — a handful of
// block-size column buffers, sized once and recycled, plus the encoder's
// scratch — where append-grown columns took about 2.5 MB.
func TestLakeRecordingAllocBudget(t *testing.T) {
	spec := Spec{
		Algo: AlgoAuth, Params: lanTestParams(32, 15, Auth),
		FaultyCount: 15, Attack: AttackSilent, Horizon: 100, Seed: 4242,
	}
	var events []Event
	if _, err := Run(context.Background(), spec, WithProbe(ProbeFunc(func(ev Event) { events = append(events, ev) }))); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	lw := NewLakeWriter(io.Discard)
	for _, ev := range events {
		lw.OnEvent(ev)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 2.0 {
		t.Fatalf("recording %d events allocated %.2f MB in the lake writer, budget 2.0 MB", len(events), mb)
	} else {
		t.Logf("%d events, %.2f MB", len(events), mb)
	}
}
