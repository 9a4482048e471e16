package tracelake

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"optsync/internal/probe"
)

// synthEvents builds a deterministic stream shaped like a real trace:
// per-round broadcast storms (one sent + fan-out deliveries sharing the
// sender), pulses, resyncs, and skew samples, with non-trivial values in
// every column.
func synthEvents(n, rounds int, seed int64) []probe.Event {
	rng := rand.New(rand.NewSource(seed))
	var evs []probe.Event
	t := 0.0
	for k := 0; k < rounds; k++ {
		for s := 0; s < n; s++ {
			t += 1e-4 * rng.Float64()
			evs = append(evs, probe.Event{
				Type: probe.TypeMessageSent, Kind: 3, From: int32(s), To: -1,
				Round: int32(k), T: t, Value: t + 0.002 + 0.008*rng.Float64(),
			})
			for d := 0; d < n-1; d++ {
				to := int32((s + 1 + d) % n)
				evs = append(evs, probe.Event{
					Type: probe.TypeMessageDelivered, Kind: 3, From: int32(s), To: to,
					Round: int32(k), T: t + 0.002 + 0.008*rng.Float64(),
				})
			}
			if rng.Intn(7) == 0 {
				evs = append(evs, probe.Event{
					Type: probe.TypeMessageDropLink, Kind: 3, From: int32(s),
					To: int32(rng.Intn(n)), Round: int32(k), T: t, Value: -1,
				})
			}
		}
		for s := 0; s < n; s++ {
			evs = append(evs, probe.Event{
				Type: probe.TypePulse, From: int32(s), To: -1, Round: int32(k),
				T: t + 0.01, Value: float64(k) + 0.5*rng.Float64(),
			})
		}
		evs = append(evs, probe.Event{
			Type: probe.TypeSkewSample, From: -1, To: -1, Round: int32(n),
			T: t + 0.02, Value: 1e-3 * rng.Float64(),
		})
	}
	return evs
}

// buildLake writes events into an in-memory container.
func buildLake(t testing.TB, evs []probe.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, ev := range evs {
		w.OnEvent(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Events() != uint64(len(evs)) {
		t.Fatalf("writer recorded %d of %d events", w.Events(), len(evs))
	}
	return buf.Bytes()
}

func openLake(t testing.TB, data []byte) *Lake {
	t.Helper()
	l, err := OpenBytes(data)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	return l
}

// TestRoundTripExact: a match-all Scan returns the recorded stream in
// order, bit-for-bit, across block boundaries and interleaved types.
func TestRoundTripExact(t *testing.T) {
	evs := synthEvents(9, 20, 1) // ~tens of thousands: several blocks per hot type
	l := openLake(t, buildLake(t, evs))
	defer l.Close()
	if l.Events() != uint64(len(evs)) {
		t.Fatalf("footer counts %d events, want %d", l.Events(), len(evs))
	}
	i := 0
	st, err := l.Scan(Query{}, func(ev probe.Event) error {
		if i >= len(evs) {
			t.Fatalf("scan produced more than %d events", len(evs))
		}
		if ev != evs[i] {
			t.Fatalf("event %d diverges:\n got %+v\nwant %+v", i, ev, evs[i])
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(evs) {
		t.Fatalf("scan produced %d of %d events", i, len(evs))
	}
	if st.BlocksPruned != 0 || st.EventsMatched != uint64(len(evs)) {
		t.Fatalf("match-all stats = %+v", st)
	}
}

// TestRoundTripExtremeValues pins bit-exactness on the float edge cases
// delta-of-bits encoding has to survive.
func TestRoundTripExtremeValues(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1e-300, -1e300, math.Inf(1), math.Inf(-1),
		math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64, 3.141592653589793}
	var evs []probe.Event
	for i, v := range vals {
		evs = append(evs, probe.Event{
			Type: probe.TypeResync, From: int32(i), To: -1, Round: int32(i - 5),
			T: float64(i), Value: v, Aux: -v,
		})
	}
	l := openLake(t, buildLake(t, evs))
	defer l.Close()
	i := 0
	if _, err := l.Scan(Query{}, func(ev probe.Event) error {
		want := evs[i]
		if math.Float64bits(ev.Value) != math.Float64bits(want.Value) ||
			math.Float64bits(ev.Aux) != math.Float64bits(want.Aux) ||
			ev.T != want.T || ev.From != want.From || ev.Round != want.Round {
			t.Fatalf("event %d: got %+v want %+v", i, ev, want)
		}
		i++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if i != len(evs) {
		t.Fatalf("replayed %d of %d", i, len(evs))
	}
}

// TestEmptyLake: a run nobody observed still finalizes into a valid,
// empty container.
func TestEmptyLake(t *testing.T) {
	l := openLake(t, buildLake(t, nil))
	defer l.Close()
	if l.Events() != 0 || l.BlockCount() != 0 {
		t.Fatalf("empty lake: %d events, %d blocks", l.Events(), l.BlockCount())
	}
	st, err := l.Scan(Query{}, func(probe.Event) error { t.Fatal("event in empty lake"); return nil })
	if err != nil || st.EventsMatched != 0 {
		t.Fatalf("scan: %+v, %v", st, err)
	}
}

// filterRef is the brute-force reference the query engine must agree
// with.
func filterRef(evs []probe.Event, q Query) []probe.Event {
	mask := q.typeMask()
	var out []probe.Event
	for _, ev := range evs {
		if !mask[ev.Type] {
			continue
		}
		if q.FilterTime && (ev.T < q.TMin || ev.T > q.TMax) {
			continue
		}
		if q.FilterNode && ev.From != q.Node && ev.To != q.Node {
			continue
		}
		if q.FilterRound && (ev.Round < q.RoundMin || ev.Round > q.RoundMax) {
			continue
		}
		out = append(out, ev)
	}
	return out
}

// TestQueryMatchesReference: every predicate combination agrees with the
// brute-force filter, in order, with pruning active.
func TestQueryMatchesReference(t *testing.T) {
	evs := synthEvents(8, 16, 2)
	l := openLake(t, buildLake(t, evs))
	defer l.Close()
	tMid := evs[len(evs)/2].T
	queries := []Query{
		Query{}.WithTypes(probe.TypeSkewSample),
		Query{}.WithTypes(probe.TypePulse, probe.TypeMessageDropLink),
		Query{}.WithNode(3),
		Query{}.WithNode(0), // node 0 must be filterable (zero-value footgun check)
		Query{}.WithTimeRange(tMid, math.Inf(1)),
		Query{}.WithTimeRange(0, tMid),
		Query{}.WithRound(5),
		Query{}.WithRounds(2, 4),
		Query{}.WithTypes(probe.TypeMessageDelivered).WithNode(1).WithTimeRange(tMid/2, tMid),
		Query{}.WithTypes(probe.TypePulse).WithRounds(10, 12).WithNode(7),
		Query{}.WithTimeRange(2, 1), // empty range
	}
	for qi, q := range queries {
		want := filterRef(evs, q)
		var got []probe.Event
		st, err := l.Scan(q, func(ev probe.Event) error {
			got = append(got, ev)
			return nil
		})
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d (%+v): %d events, want %d", qi, q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d event %d: got %+v want %+v", qi, i, got[i], want[i])
			}
		}
		if st.EventsMatched != uint64(len(want)) {
			t.Fatalf("query %d stats: %+v, want %d matched", qi, st, len(want))
		}
	}
}

// TestPruningSkipsBlocks: a selective query must skip non-matching row
// groups at the footer, not decode-and-discard them.
func TestPruningSkipsBlocks(t *testing.T) {
	// 16 nodes x 240 rounds: the delivery column alone spans ~15 blocks,
	// so both type- and time-granular pruning have something to skip.
	evs := synthEvents(16, 240, 3)
	l := openLake(t, buildLake(t, evs))
	defer l.Close()

	// Type selectivity: skew samples are one block; everything else must
	// be pruned without a read.
	st, err := l.ScanRows(Query{}.WithTypes(probe.TypeSkewSample), func(*Rows) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.BlocksScanned == 0 || st.BlocksPruned == 0 ||
		st.BlocksScanned+st.BlocksPruned != st.BlocksTotal {
		t.Fatalf("type-pruned stats: %+v", st)
	}
	if st.BlocksScanned > st.BlocksTotal/4 {
		t.Fatalf("type query scanned %d of %d blocks — pruning is not working", st.BlocksScanned, st.BlocksTotal)
	}

	// Time selectivity: a ~1%% slice of the horizon.
	tMax := evs[len(evs)-1].T
	stTime, err := l.ScanRows(Query{}.WithTimeRange(tMax*0.49, tMax*0.50), func(*Rows) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stTime.BlocksPruned == 0 || stTime.BlocksScanned >= stTime.BlocksTotal/2 {
		t.Fatalf("time-pruned stats: %+v", stTime)
	}
}

// TestReplayReproducesCollectors is the probe-layer correctness
// contract: aggregates folded live and from a lake replay are identical.
func TestReplayReproducesCollectors(t *testing.T) {
	evs := synthEvents(7, 12, 4)

	live := []probe.Collector{probe.NewSkewStats(), probe.NewSpreadStats(), probe.NewMsgStats()}
	var bus probe.Bus
	var lw bytes.Buffer
	w := NewWriter(&lw)
	for _, c := range live {
		bus.AttachCollector(c)
	}
	bus.Attach(w)
	for _, ev := range evs {
		bus.Emit(ev)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	l := openLake(t, lw.Bytes())
	defer l.Close()
	replayed := []probe.Collector{probe.NewSkewStats(), probe.NewSpreadStats(), probe.NewMsgStats()}
	probes := make([]probe.Probe, len(replayed))
	for i, c := range replayed {
		probes[i] = c
	}
	n, err := l.Replay(Query{}, probes...)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(evs) {
		t.Fatalf("replayed %d of %d events", n, len(evs))
	}
	for i := range live {
		la, ra := live[i].Aggregate(), replayed[i].Aggregate()
		if len(la) != len(ra) {
			t.Fatalf("%s: %d vs %d stats", live[i].Name(), len(la), len(ra))
		}
		for j := range la {
			if la[j] != ra[j] {
				t.Fatalf("%s stat %d: live %+v replay %+v", live[i].Name(), j, la[j], ra[j])
			}
		}
	}
}

// TestWriterAfterFlush: events after finalize are an error, not a drop.
func TestWriterAfterFlush(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.OnEvent(probe.Event{Type: probe.TypePulse, T: 1})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	w.OnEvent(probe.Event{Type: probe.TypePulse, T: 2})
	if err := w.Err(); err == nil || !strings.Contains(err.Error(), "after Flush") {
		t.Fatalf("OnEvent after Flush not rejected: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("second Flush must report the first call's (nil) outcome, got %v", err)
	}
}

// pvAt is the reference prefix-varint decoder: the value at src[off] and
// the offset past it. src must have at least 9 readable bytes at off.
// decodeDelta inlines the same decode with a pvMask lookup; this one
// computes the mask instead, so it shares no table with the decoder.
func pvAt(src []byte, off int) (uint64, int) {
	b0 := src[off]
	n := int(b0 & 0x0f)
	w := binary.LittleEndian.Uint64(src[off+1:]) & (1<<(8*uint(n)) - 1)
	return uint64(b0>>4) | w<<4, off + 1 + n
}

// TestPrefixVarint exercises the codec over the whole value range.
func TestPrefixVarint(t *testing.T) {
	vals := []uint64{0, 1, 15, 16, 255, 256, 1<<20 - 1, 1 << 32, 1<<60 + 12345, math.MaxUint64}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Uint64()>>uint(rng.Intn(64)))
	}
	var buf []byte
	for _, v := range vals {
		buf = appendPV(buf, v)
	}
	buf = append(buf, make([]byte, 8)...) // decoder pad
	off := 0
	for i, want := range vals {
		got, next := pvAt(buf, off)
		if got != want {
			t.Fatalf("value %d: decoded %d, want %d", i, got, want)
		}
		off = next
	}
	if off != len(buf)-8 {
		t.Fatalf("decoder consumed %d of %d bytes", off, len(buf)-8)
	}
}

// TestMagicMatchesProbe pins the cross-package contract: probe's format
// sniffing and this package's header must agree byte-for-byte.
func TestMagicMatchesProbe(t *testing.T) {
	if Magic != probe.LakeMagic {
		t.Fatalf("tracelake.Magic %q != probe.LakeMagic %q", Magic[:], probe.LakeMagic[:])
	}
}
