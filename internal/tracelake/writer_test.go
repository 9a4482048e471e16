package tracelake

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"optsync/internal/probe"
)

// blockEvents is n events of one type with every column non-constant.
func blockEvents(typ probe.Type, n int) []probe.Event {
	evs := make([]probe.Event, n)
	for i := range evs {
		evs[i] = probe.Event{
			Type: typ, Kind: uint16(i % 3), From: int32(i % 32), To: int32(i % 31),
			Round: int32(i / 1000), T: 1e-4 * float64(i), Value: 0.5 * float64(i), Aux: float64(i % 5),
		}
	}
	return evs
}

// waitGoroutines polls until the goroutine count is back at baseline: a
// writer's encoder or a scan's decode worker exits a moment after it is
// done.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines are running, %d were before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// failAt is an io.Writer whose k-th Write fails; it counts every call.
type failAt struct {
	mu    sync.Mutex
	k     int
	calls int
}

var errDiskFull = errors.New("disk full")

func (f *failAt) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls >= f.k {
		return 0, fmt.Errorf("write %d: %w", f.calls, errDiskFull)
	}
	return len(p), nil
}

// TestWriterIOError: the destination's first error stops every further
// Write, comes back from Flush and Err, and costs the producer nothing
// but its events — it neither blocks on a dead encoder nor panics.
func TestWriterIOError(t *testing.T) {
	sent := blockEvents(probe.TypeMessageSent, 1)[0]
	for _, tc := range []struct {
		name   string
		k      int // the failing Write
		blocks int // full message_delivered blocks fed before Flush
	}{
		{"no_full_block", 1, 0}, // the first Write is Flush's
		{"first_full_block", 1, 12},
		{"second_full_block", 2, 12},
		{"past_the_spares", maxInFlight + 3, 2*maxInFlight + 10},
		{"footer", 5, 2}, // two full blocks, two partial ones, then the footer
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			dst := &failAt{k: tc.k}
			w := NewWriter(dst)
			finished := make(chan error, 1)
			go func() {
				w.OnEvent(sent)
				for _, ev := range blockEvents(probe.TypeMessageDelivered, tc.blocks*blockRows+17) {
					w.OnEvent(ev)
				}
				finished <- w.Flush()
			}()
			var err error
			select {
			case err = <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("producer and encoder deadlocked behind the failing writer")
			}
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("Flush returned %v, want the writer's error", err)
			}
			if !errors.Is(w.Err(), errDiskFull) || w.Flush() != err {
				t.Fatalf("after Flush: Err %v, second Flush %v, want %v", w.Err(), w.Flush(), err)
			}
			if dst.calls != tc.k {
				t.Fatalf("%d Write calls, want none after the failing call %d", dst.calls, tc.k)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// TestWriterAbandoned: a Writer dropped without Flush (an error path that
// gives up on the trace) leaves no goroutine behind, and none exists for
// a lake that never filled a block.
func TestWriterAbandoned(t *testing.T) {
	baseline := runtime.NumGoroutine()
	small := NewWriter(io.Discard)
	for _, ev := range blockEvents(probe.TypePulse, blockRows-1) {
		small.OnEvent(ev)
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("%d goroutines before any block was full, %d before the writer existed", n, baseline)
	}
	if err := small.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != baseline {
		t.Fatalf("Flush of a lake without a full block started a goroutine (%d, were %d)", n, baseline)
	}

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range blockEvents(probe.TypePulse, 3*blockRows+5) {
		w.OnEvent(ev)
	}
	waitGoroutines(t, baseline)
	if w.Err() != nil || w.Events() != 3*blockRows+5 {
		t.Fatalf("abandoned writer: %d events, err %v", w.Events(), w.Err())
	}
}

// TestWriterSynchronizedBatch is the RunBatch shape: eight goroutines
// emit through one probe.Synchronized writer. Their events interleave,
// the lake still holds every one of them, under its own type.
func TestWriterSynchronizedBatch(t *testing.T) {
	types := []probe.Type{probe.TypeMessageSent, probe.TypeMessageDelivered, probe.TypePulse, probe.TypeSkewSample}
	const perRun = 3*blockRows + 123
	var buf bytes.Buffer
	w := NewWriter(&buf)
	shared := probe.Synchronized(w)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, ev := range blockEvents(types[g%len(types)], perRun) {
				shared.OnEvent(ev)
			}
		}(g)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	l := openLake(t, buf.Bytes())
	defer l.Close()
	if l.Events() != 8*perRun {
		t.Fatalf("lake holds %d events, want %d", l.Events(), 8*perRun)
	}
	var rows [probe.NumTypes]int
	if _, err := l.Scan(Query{}, func(ev probe.Event) error { rows[ev.Type]++; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, typ := range types {
		if rows[typ] != 2*perRun {
			t.Fatalf("%v: %d rows, want %d", typ, rows[typ], 2*perRun)
		}
	}
}

// TestWriterBytesIgnoreGOMAXPROCS: blocks are encoded first in, first
// out, so how many cores the encoder goroutine had cannot show in the
// file.
func TestWriterBytesIgnoreGOMAXPROCS(t *testing.T) {
	evs := synthEvents(16, 120, 5) // ~35 full blocks across five types
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first []byte
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		data := buildLake(t, evs)
		if first == nil {
			first = data
			continue
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("GOMAXPROCS=%d wrote a different lake than GOMAXPROCS=1 (%d and %d bytes)", procs, len(data), len(first))
		}
	}
}

// TestWriterSteadyStateAllocs: once a type has cycled through its first
// full block, recording recycles — the store path, the hand-off and the
// encoder allocate nothing.
func TestWriterSteadyStateAllocs(t *testing.T) {
	types := []probe.Type{probe.TypeMessageSent, probe.TypeMessageDelivered, probe.TypePulse}
	w := NewWriter(io.Discard)
	evs := make([][]probe.Event, len(types))
	for i, typ := range types {
		evs[i] = blockEvents(typ, 4*blockRows)
	}
	record := func() {
		for i := range evs[0] {
			for _, stream := range evs {
				w.OnEvent(stream[i])
			}
		}
	}
	record() // ramp-up: every buffer, scratch and queue reaches its size
	// The footer index is the one thing that has to grow with the lake, 64
	// bytes a block; give it its room up front.
	w.join()
	w.enc.blocks = slices.Grow(w.enc.blocks, 6*len(types)*4)
	if allocs := testing.AllocsPerRun(5, record); allocs != 0 {
		t.Fatalf("recording %d events into a warm writer allocates %v times", len(types)*4*blockRows, allocs)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}
