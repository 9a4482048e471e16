package harness

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/probe"
)

// FuzzObservationInvariance: observing a run must not change it. The fuzz
// inputs decode to a small spec through fuzzSpec (seeds under
// testdata/fuzz/FuzzObservationInvariance): any registered algorithm (the
// paper's two and the baselines the bias attack targets) and any
// registered attack. A spec wellFormed rejects, or whose unprobed serial
// run fails, is skipped. Otherwise the spec runs again with a
// counting probe subscribed to a subset of the probe types, at 1, 2 or 8
// shards, and must give the unprobed serial Result but for Spec and
// Runtime. Every exec runs in the same process, so the second run also
// draws the queue storage the runs before it released.
func FuzzObservationInvariance(f *testing.F) {
	types := probe.AllTypes()
	f.Fuzz(func(t *testing.T, algo, rawN, rawF, attack, topology, partition, joiner uint8, subset uint16, shards uint8, seed int64) {
		spec, ok := fuzzSpec(algo, rawN, rawF, attack, topology, partition, joiner, seed)
		if !ok {
			return
		}
		serial := spec
		serial.Shards = 1
		want, err := RunContext(context.Background(), serial)
		if err != nil {
			return
		}
		var watch []probe.Type
		for i, typ := range types {
			if subset>>i&1 != 0 {
				watch = append(watch, typ)
			}
		}
		probed := spec
		probed.Shards = []int{1, 2, 8}[shards%3]
		events := 0
		got, err := RunObserved(context.Background(), probed, func(_ Spec, bus *probe.Bus) {
			if len(watch) > 0 {
				bus.Attach(probe.Func(func(probe.Event) { events++ }), watch...)
			}
		})
		if err != nil {
			t.Fatalf("%+v: the unprobed serial run succeeded, the probed one at %d shards failed: %v", spec, probed.Shards, err)
		}
		if want, got = shardInvariant(want), shardInvariant(got); !reflect.DeepEqual(want, got) {
			t.Fatalf("%+v observed through %v at %d shards (%d events):\n unprobed %+v\n probed   %+v",
				spec, watch, probed.Shards, events, want, got)
		}
	})
}

// fuzzSpec decodes the fuzzers' spec bytes: n in 1..10, any registered
// algorithm and attack, at most one partition window, at most one late
// joiner, a mesh or ring:D, and a horizon of 4. It reports false for a
// spec wellFormed rejects.
func fuzzSpec(algo, rawN, rawF, attack, topology, partition, joiner uint8, seed int64) (Spec, bool) {
	n := 1 + int(rawN%10)
	spec := Spec{
		Algo: Protocols()[int(algo)%len(Protocols())], Params: lanParams(n, int(rawF%8)%n, bounds.Primitive),
		FaultyCount: int(rawF>>4) % (n + 1), Attack: Attacks()[int(attack)%len(Attacks())],
		Horizon: 4, Seed: seed, KeepSeries: topology&0x80 != 0, SpreadDelays: topology&0x40 != 0,
	}
	if spec.Algo == AlgoAuth {
		spec.Params = lanParams(n, spec.Params.F, bounds.Auth)
	}
	if d := 2 * (int(topology&7) % 5); d > 0 {
		spec.Topology = fmt.Sprintf("ring:%d", d)
	} else if topology&0x20 != 0 {
		spec.Topology = "mesh"
	}
	if partition != 0 {
		at := 0.5 + float64(partition%8)/2
		spec.Partitions = []Partition{{At: at, Heal: at + float64(partition>>3%4), LeftSize: 1 + int(partition>>5)%n}}
	}
	if joiner != 0 {
		spec.StartAt = map[int]float64{int(joiner) % n: float64(joiner>>4) / 4}
	}
	return spec, wellFormed(spec.withDefaults()) == nil
}
