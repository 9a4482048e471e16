package probe

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// builtinFolders returns one fresh instance of each built-in collector.
func builtinFolders() []Folder {
	return []Folder{NewSkewStats(), NewSpreadStats(), NewMsgStats(), NewReintegrationWindows(), NewSeries()}
}

// randomStream draws n events over all eleven types, shaped to reach the
// collectors' corners: sends in runs of equal rounds and as strays,
// duplicate pulses, pulses faking far-future rounds, nodes that boot at
// zero, late, and more than once, and skews below, at and above zero.
func randomStream(rng *rand.Rand, n int) []Event {
	evs := make([]Event, 0, n)
	t := 0.0
	for len(evs) < n {
		t += rng.Float64() * 1e-3
		ev := Event{Type: Type(1 + rng.Intn(NumTypes-1)), Kind: uint16(rng.Intn(3)),
			From: int32(rng.Intn(8)), To: int32(rng.Intn(8)), Round: int32(rng.Intn(6)), T: t, Value: rng.Float64()}
		switch ev.Type {
		case TypeMessageSent:
			for k := rng.Intn(9); k > 0 && len(evs) < n; k-- { // a broadcast: one run
				evs = append(evs, ev)
				ev.To++
			}
		case TypePulse:
			if rng.Intn(10) == 0 {
				ev.Round = math.MaxInt32 - int32(rng.Intn(3))
			}
			if rng.Intn(4) == 0 {
				evs = append(evs, ev) // a duplicate
			}
		case TypeNodeBoot:
			if rng.Intn(3) == 0 {
				ev.T = 0
			}
		case TypeSkewSample:
			ev.Value = []float64{-1e-3, 0, math.Copysign(0, -1), 1e-9, 5e-3, 2, 1e300}[rng.Intn(7)] * rng.Float64()
		}
		evs = append(evs, ev)
	}
	return evs[:n]
}

// batches splits evs by type into batches of random length and returns
// them in a random cross-type order that keeps each type's own order —
// everything the Folder contract lets a producer do.
func batches(rng *rand.Rand, evs []Event) []*Batch {
	var perType [NumTypes][]*Batch
	var open [NumTypes]*Batch
	for _, ev := range evs {
		b := open[ev.Type]
		if b == nil || rng.Intn(5) == 0 {
			b = &Batch{Type: ev.Type}
			open[ev.Type] = b
			perType[ev.Type] = append(perType[ev.Type], b)
		}
		b.T = append(b.T, ev.T)
		b.From = append(b.From, ev.From)
		b.To = append(b.To, ev.To)
		b.Kind = append(b.Kind, ev.Kind)
		b.Round = append(b.Round, ev.Round)
		b.Value = append(b.Value, ev.Value)
		b.Aux = append(b.Aux, ev.Aux)
	}
	var out []*Batch
	for {
		var live []int
		for t := range perType {
			if len(perType[t]) > 0 {
				live = append(live, t)
			}
		}
		if len(live) == 0 {
			return out
		}
		t := live[rng.Intn(len(live))]
		out = append(out, perType[t][0])
		perType[t] = perType[t][1:]
	}
}

// TestFoldMatchesOnEvent is the differential oracle of the fold path:
// the five built-in collectors fed a stream event by event, and fed the
// same stream as per-type batches in a shuffled cross-type order, must
// end in the same state — every field, hence every aggregate.
func TestFoldMatchesOnEvent(t *testing.T) {
	sawFewSamples := false
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		evs := randomStream(rng, []int{0, 1, 25, 400, 3000}[seed%5])

		live, folded := builtinFolders(), builtinFolders()
		var emit, fold Bus
		for i := range live {
			emit.AttachCollector(live[i])
			fold.AttachCollector(folded[i])
		}
		for _, ev := range evs {
			emit.Emit(ev)
		}
		for _, b := range batches(rng, evs) {
			if fold.Active(b.Type) {
				fold.Fold(b)
			}
		}

		for i := range live {
			if !reflect.DeepEqual(live[i], folded[i]) {
				t.Fatalf("seed %d: %s state diverges\n event: %+v\n fold:  %+v", seed, live[i].Name(), live[i], folded[i])
			}
			if a, b := live[i].Aggregate(), folded[i].Aggregate(); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d: %s aggregate %v, folded %v", seed, live[i].Name(), a, b)
			}
		}
		ls, fs := live[0].(*SkewStats), folded[0].(*SkewStats)
		if ls.Histogram() != fs.Histogram() {
			t.Fatalf("seed %d: histograms diverge", seed)
		}
		if n := ls.Count(); n > 0 && n < 5 {
			sawFewSamples = true // p2.value's nearest-rank branch
		}
		if a, b := live[2].(*MsgStats).PerRound(), folded[2].(*MsgStats).PerRound(); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: per-round sends %v, folded %v", seed, a, b)
		}
		if a, b := live[3].(*ReintegrationWindows).Windows(), folded[3].(*ReintegrationWindows).Windows(); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: windows %v, folded %v", seed, a, b)
		}
	}
	if !sawFewSamples {
		t.Fatal("no stream had 1-4 skew samples; the small-sample quantile branch went untested")
	}
}

// TestSpreadAggregateIsAFunctionOfState: the mean spread is a float sum
// over a map, and must not depend on the order the map happens to
// iterate in — 200 calls on one state give one bit pattern.
func TestSpreadAggregateIsAFunctionOfState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSpreadStats()
	for k := int32(0); k < 400; k++ {
		for n := int32(0); n < 25; n++ {
			s.OnEvent(Event{Type: TypePulse, From: n, Round: k, T: float64(k) + rng.Float64()*0.01})
		}
	}
	want := s.Aggregate()
	for i := 0; i < 200; i++ {
		got := s.Aggregate()
		for j := range want {
			if math.Float64bits(got[j].Value) != math.Float64bits(want[j].Value) {
				t.Fatalf("call %d: %s = %x, first call gave %x", i, want[j].Key,
					math.Float64bits(got[j].Value), math.Float64bits(want[j].Value))
			}
		}
	}
}
