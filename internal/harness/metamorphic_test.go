package harness

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/probe"
)

// Two metamorphic oracles for the whole simulator. Every time quantity of a
// run is a spec time, or a product of a random draw and a spec time, and
// multiplying by 2^e is exact in binary floating point; so a run whose spec
// times are all scaled by 2^e must reproduce the unscaled run with every
// time scaled, bit for bit. And a simulator that does not read its
// horizon ahead of time must give, cut at c, what it gives before c when
// run to H > c.

// dim is a field's physical dimension: a time in seconds, or none.
type dim int

const (
	dimNone dim = iota + 1
	dimTime
)

// dims gives every field of Result, and of the Spec, bounds.Params,
// Partition, probe.Sample and node.PulseRecord values within it, a
// dimension, keyed "Type.Field". A struct field, or a slice of structs,
// with no entry is walked into. A time field is a float64 or a map to
// float64 values. TestEveryFieldHasADimension fails on a field that is
// neither listed nor walked into, so a new field cannot escape the
// oracle.
var dims = map[string]dim{
	"Spec.Name": dimNone, "Spec.Algo": dimNone, "Spec.FaultyCount": dimNone,
	"Spec.Attack": dimNone, "Spec.Bias": dimTime, "Spec.RushInterval": dimTime,
	"Spec.Horizon": dimTime, "Spec.SampleEvery": dimTime, "Spec.Seed": dimNone,
	"Spec.CNVDelta": dimTime, "Spec.Window": dimTime, "Spec.KeepSeries": dimNone,
	"Spec.SpreadDelays": dimNone, "Spec.SlewRate": dimNone, "Spec.ColdStart": dimNone,
	"Spec.DisableRelay": dimNone, "Spec.StartAt": dimTime, "Spec.ClockOffset": dimTime,
	"Spec.Topology": dimNone, "Spec.Shards": dimNone,

	"Params.N": dimNone, "Params.F": dimNone, "Params.Variant": dimNone,
	"Params.Rho": dimNone, "Params.DMin": dimTime, "Params.DMax": dimTime,
	"Params.Period": dimTime, "Params.Alpha": dimTime, "Params.InitialSkew": dimTime,

	"Partition.At": dimTime, "Partition.Heal": dimTime, "Partition.LeftSize": dimNone,

	"Result.MaxSkew": dimTime, "Result.SkewBound": dimTime, "Result.WithinSkew": dimNone,
	"Result.SkewSamples": dimNone, "Result.SkewP50": dimTime, "Result.SkewP95": dimTime,
	"Result.SkewP99": dimTime, "Result.MaxSpread": dimTime, "Result.SpreadBound": dimTime,
	"Result.CompleteRounds": dimNone, "Result.PulseCount": dimNone,
	"Result.MinPeriod": dimTime, "Result.MaxPeriod": dimTime,
	"Result.PminBound": dimTime, "Result.PmaxBound": dimTime,
	"Result.EnvLo": dimNone, "Result.EnvHi": dimNone, "Result.EnvBoundLo": dimNone,
	"Result.EnvBoundHi": dimNone, "Result.WithinEnvelope": dimNone, "Result.EnvelopeOK": dimNone,
	"Result.TotalMsgs": dimNone, "Result.MsgsPerRound": dimNone, "Result.Delivered": dimNone,
	"Result.Dropped": dimNone, "Result.DroppedOffline": dimNone, "Result.DroppedLink": dimNone,
	"Result.Runtime": dimNone,

	"Sample.T": dimTime, "Sample.Skew": dimTime,

	"PulseRecord.Node": dimNone, "PulseRecord.Round": dimNone,
	"PulseRecord.Real": dimTime, "PulseRecord.Logical": dimTime,
}

func TestEveryFieldHasADimension(t *testing.T) {
	seen := map[string]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			key := typ.Name() + "." + f.Name
			d, ok := dims[key]
			seen[key] = true
			switch {
			case !ok && f.Type.Kind() == reflect.Struct:
				walk(f.Type)
			case !ok && f.Type.Kind() == reflect.Slice && f.Type.Elem().Kind() == reflect.Struct:
				walk(f.Type.Elem())
			case !ok:
				t.Errorf("%s (%s) has no dimension: add it to dims", key, f.Type)
			case d == dimTime && f.Type.Kind() != reflect.Float64 &&
				!(f.Type.Kind() == reflect.Map && f.Type.Elem().Kind() == reflect.Float64):
				t.Errorf("%s is a time but a %s, which scaleFields cannot scale", key, f.Type)
			}
		}
	}
	walk(reflect.TypeOf(Result{}))
	for key := range dims {
		if !seen[key] {
			t.Errorf("dims names %s, which is no field", key)
		}
	}
}

// scaleFields multiplies every time field of the struct v by 2^e, in
// place. Slices and maps it changes are copied first, so v shares nothing
// it scales with the value it was copied from.
func scaleFields(v reflect.Value, e int) {
	typ := v.Type()
	for i := 0; i < typ.NumField(); i++ {
		f := v.Field(i)
		d, ok := dims[typ.Name()+"."+typ.Field(i).Name]
		switch {
		case !ok && f.Kind() == reflect.Struct:
			scaleFields(f, e)
		case !ok && f.Kind() == reflect.Slice && !f.IsNil():
			s := reflect.MakeSlice(f.Type(), f.Len(), f.Len())
			reflect.Copy(s, f)
			for j := 0; j < s.Len(); j++ {
				scaleFields(s.Index(j), e)
			}
			f.Set(s)
		case d == dimTime && f.Kind() == reflect.Float64:
			f.SetFloat(math.Ldexp(f.Float(), e))
		case d == dimTime && !f.IsNil():
			m := reflect.MakeMapWithSize(f.Type(), f.Len())
			for it := f.MapRange(); it.Next(); {
				m.SetMapIndex(it.Key(), reflect.ValueOf(math.Ldexp(it.Value().Float(), e)))
			}
			f.Set(m)
		}
	}
}

// scaleSpec returns spec with every time multiplied by 2^e.
func scaleSpec(spec Spec, e int) Spec {
	scaleFields(reflect.ValueOf(&spec).Elem(), e)
	return spec
}

// scaleResult returns res with every time multiplied by 2^e.
func scaleResult(res Result, e int) Result {
	scaleFields(reflect.ValueOf(&res).Elem(), e)
	return res
}

// scaleEvent multiplies an event's times by 2^e: T, Value and Aux, but
// for the -1 that stands in Value for a message dropped at send.
func scaleEvent(ev probe.Event, e int) probe.Event {
	ev.T, ev.Aux = math.Ldexp(ev.T, e), math.Ldexp(ev.Aux, e)
	if ev.Type != probe.TypeMessageDropLink && ev.Type != probe.TypeMessageDropPolicy {
		ev.Value = math.Ldexp(ev.Value, e)
	}
	return ev
}

// recordRun runs spec with a probe on every event type and returns the
// Result and the probe stream.
func recordRun(spec Spec) (Result, []probe.Event, error) {
	var evs []probe.Event
	res, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.Attach(probe.Func(func(ev probe.Event) { evs = append(evs, ev) }), probe.AllTypes()...)
	})
	return res, evs, err
}

// checkTimeScale runs spec serially and, with its times scaled by 2^e, at
// the given shard count, and requires the scaled run to be the serial one
// with every time scaled: the Result (its Spec but for Shards, not its
// Runtime) and the probe stream. It returns the scaled run's Result, or
// false when the serial run fails.
func checkTimeScale(t *testing.T, spec Spec, e, shards int) (Result, bool) {
	t.Helper()
	serial := spec
	serial.Shards = 1
	want, wantEvs, err := recordRun(serial)
	if err != nil {
		return Result{}, false
	}
	scaled := scaleSpec(spec, e)
	scaled.Shards = shards
	got, gotEvs, err := recordRun(scaled)
	if err != nil {
		t.Fatalf("%+v: the serial run succeeded, scaled by 2^%d at %d shards it failed: %v", spec, e, shards, err)
	}
	want = scaleResult(want, e)
	want.Spec.Shards, want.Runtime = got.Spec.Shards, got.Runtime
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%+v scaled by 2^%d at %d shards:\n want %+v\n got  %+v", spec, e, shards, want, got)
	}
	if len(gotEvs) != len(wantEvs) {
		t.Fatalf("%+v scaled by 2^%d at %d shards: %d events, want %d", spec, e, shards, len(gotEvs), len(wantEvs))
	}
	for i, ev := range wantEvs {
		if w := scaleEvent(ev, e); gotEvs[i] != w {
			t.Fatalf("%+v scaled by 2^%d at %d shards: event %d is %+v, want %+v", spec, e, shards, i, gotEvs[i], w)
		}
	}
	return got, true
}

// FuzzTimeScale: a run commutes with scaling every spec time by 2^e. The
// spec decodes through fuzzSpec (seeds under testdata/fuzz/FuzzTimeScale),
// e is in [-10, 10], and the scaled spec runs at 1, 2 or 8 shards against
// the unscaled serial run. A spec wellFormed rejects, or whose unscaled
// run fails, is skipped.
func FuzzTimeScale(f *testing.F) {
	f.Fuzz(func(t *testing.T, algo, rawN, rawF, attack, topology, partition, joiner, shards uint8, exp int8, seed int64) {
		spec, ok := fuzzSpec(algo, rawN, rawF, attack, topology, partition, joiner, seed)
		if !ok {
			return
		}
		checkTimeScale(t, spec, int(exp)%11, []int{1, 2, 8}[shards%3])
	})
}

// TestTimeScaleNamedSpecs holds the time-scale oracle on the specs it was
// first measured on, each at three exponents. Scaled runs reach ladder
// paths the unscaled ones do not: mesh25-auth spills and unseals at 2^-10
// and never at 1, and the test requires that it still does.
func TestTimeScaleNamedSpecs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every named spec six times")
	}
	auth := func(n, f int) bounds.Params { return lanParams(n, f, bounds.Auth) }
	prim := func(n, f int) bounds.Params { return lanParams(n, f, bounds.Primitive) }
	mesh25 := mesh25AuthSpec
	mesh25.Horizon = 3
	mesh256 := mesh256PrimSpec
	mesh256.Horizon = 2
	specs := []struct {
		name string
		spec Spec
	}{
		{"mesh25-auth", mesh25},
		{"mesh256-prim", mesh256},
		{"campaign-cell", campaignCellSpec},
		{"prim-rush", Spec{Algo: AlgoPrim, Params: prim(8, 2), FaultyCount: 2, Attack: AttackRush, RushInterval: 0.5, Horizon: 6, Seed: 2}},
		{"auth-rush", Spec{Algo: AlgoAuth, Params: auth(8, 2), FaultyCount: 2, Attack: AttackRush, RushInterval: 0.5, Horizon: 6, Seed: 3}},
		{"auth-selective-spread", Spec{Algo: AlgoAuth, Params: auth(8, 2), FaultyCount: 2, Attack: AttackSelective, SpreadDelays: true, Horizon: 6, Seed: 4}},
		{"joiner", Spec{Algo: AlgoAuth, Params: auth(6, 1), Attack: AttackNone, StartAt: map[int]float64{4: 2.5},
			ClockOffset: map[int]float64{4: 0.003}, KeepSeries: true, Horizon: 6, Seed: 5}},
		{"ring4-n64", Spec{Algo: AlgoAuth, Params: auth(64, 3), Attack: AttackNone, Topology: "ring:4", Horizon: 3, Seed: 6}},
		{"cnv-bias", Spec{Algo: AlgoCNV, Params: prim(7, 2), FaultyCount: 2, Attack: AttackBias, Bias: 0.004, Horizon: 6, Seed: 7}},
		{"ftm-bias", Spec{Algo: AlgoFTM, Params: prim(7, 2), FaultyCount: 2, Attack: AttackBias, Bias: 0.004, Horizon: 6, Seed: 8}},
		{"auth-equivocate-slew", Spec{Algo: AlgoAuth, Params: auth(9, 2), FaultyCount: 2, Attack: AttackEquivocate, SlewRate: 0.05, Horizon: 6, Seed: 9}},
		{"prim-crash-mid-cold", Spec{Algo: AlgoPrim, Params: prim(7, 2), FaultyCount: 2, Attack: AttackCrashMid, ColdStart: true, Horizon: 6, Seed: 10}},
		{"wan4", Spec{Algo: AlgoPrim, Params: prim(9, 2), Attack: AttackNone, Topology: "wan:4", Horizon: 6, Seed: 11}},
	}
	for i, c := range specs {
		for j, e := range []int{-10, -1, 10} {
			shards := []int{1, 2, 8}[(i+j)%3]
			t.Run(fmt.Sprintf("%s/e=%d/shards=%d", c.name, e, shards), func(t *testing.T) {
				got, ok := checkTimeScale(t, c.spec, e, shards)
				if !ok {
					t.Fatalf("%+v: the serial run failed", c.spec)
				}
				if c.name == "mesh25-auth" && e == -10 && (got.Runtime.Ladder.Spills == 0 || got.Runtime.Ladder.Unseals == 0) {
					t.Errorf("mesh25-auth at 2^-10 no longer spills and unseals: %+v", got.Runtime.Ladder)
				}
			})
		}
	}
}

// FuzzHorizonPrefix: cutting a run's horizon cuts its history and changes
// nothing before the cut. The spec decodes through fuzzSpec (seeds under
// testdata/fuzz/FuzzHorizonPrefix) with a horizon H of 1 to 8 periods,
// and runs serially to H and at 1, 2 or 8 shards to a cut c in (0, H).
// The cut run's probe stream must be the H-run's events before c followed
// by some of its events at c, and its pulse log and skew series must be
// prefixes of the H-run's. crash-mid is skipped: it crashes its nodes at
// half the horizon, so its history depends on H by definition.
func FuzzHorizonPrefix(f *testing.F) {
	f.Fuzz(func(t *testing.T, algo, rawN, rawF, attack, topology, partition, joiner, shards, horizon, cut uint8, seed int64) {
		spec, ok := fuzzSpec(algo, rawN, rawF, attack, topology, partition, joiner, seed)
		if !ok || spec.Attack == AttackCrashMid {
			return
		}
		spec.KeepSeries = true
		long := spec
		long.Horizon, long.Shards = float64(1+horizon%8)*spec.Params.Period, 1
		want, wantEvs, err := recordRun(long)
		if err != nil {
			return
		}
		short := spec
		short.Horizon, short.Shards = long.Horizon*float64(1+cut%63)/64, []int{1, 2, 8}[shards%3]
		c := short.Horizon
		got, gotEvs, err := recordRun(short)
		if err != nil {
			t.Fatalf("%+v: the run to %v succeeded, the run to %v at %d shards failed: %v", spec, long.Horizon, c, short.Shards, err)
		}
		before := 0
		for before < len(wantEvs) && wantEvs[before].T < c {
			before++
		}
		if len(gotEvs) < before || len(gotEvs) > len(wantEvs) {
			t.Fatalf("%+v cut at %v of %v: %d events, want %d to %d", spec, c, long.Horizon, len(gotEvs), before, len(wantEvs))
		}
		for i, ev := range gotEvs {
			if ev != wantEvs[i] || i >= before && ev.T != c {
				t.Fatalf("%+v cut at %v of %v: event %d is %+v, the full run's is %+v", spec, c, long.Horizon, i, ev, wantEvs[i])
			}
		}
		if !isPrefix(got.Pulses, want.Pulses) || !isPrefix(got.Series, want.Series) {
			t.Fatalf("%+v cut at %v of %v: pulse log or skew series is no prefix of the full run's:\n cut  %+v %+v\n full %+v %+v",
				spec, c, long.Horizon, got.Pulses, got.Series, want.Pulses, want.Series)
		}
	})
}

// isPrefix reports whether a is a prefix of b.
func isPrefix[T comparable](a, b []T) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}
