// Package fixture seeds known detrand violations and the idioms that
// must NOT be flagged. lint_test loads it twice: once under a synthetic
// path inside the deterministic core (every "want" below must fire) and
// once under a neutral path (detrand must stay silent).
package fixture

import (
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"time"

	"optsync/internal/probe"
	"optsync/internal/sim"
)

func wallClock() float64 {
	return float64(time.Now().UnixNano()) // want detrand "wall-clock read time.Now"
}

func wallClockElapsed(start time.Time) time.Duration {
	return time.Since(start) // want detrand "wall-clock read time.Since"
}

func globalRand() int {
	return rand.Intn(10) // want detrand "global math/rand source (rand.Intn)"
}

func localRandOK(rng *rand.Rand) int {
	return rng.Intn(10) // method on an injected stream, not the global source
}

func lfibSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want detrand "607-word source (rand.NewSource)"
}

func handSeededPCG(seed uint64) *randv2.PCG { // want detrand "generator built by hand (rand.PCG)"
	return randv2.NewPCG(seed, 1) // want detrand "generator built by hand (rand.NewPCG)"
}

func simStreamOK(seed int64, id int) *rand.Rand {
	return rand.New(sim.NewStream(seed, id, sim.NodeStream)) // the repo idiom
}

func allowlistedSource(seed int64) rand.Source {
	//syncsim:allowlist detrand fixture: a reference generator kept on purpose
	return rand.NewSource(seed)
}

func spawn(fn func()) {
	go fn() // want detrand "goroutine spawned outside the sim.Shards coordinator"
}

func spawnFromConstructorOK(fn func()) *sim.Shards {
	go fn() // constructor-shaped: result type *sim.Shards
	return nil
}

func mapRangeEmit(bus *probe.Bus, m map[int32]float64) {
	for id, v := range m { // want detrand "probe emission (Bus.Emit)"
		if bus.Active(probe.TypePulse) {
			bus.Emit(probe.Event{Type: probe.TypePulse, From: id, To: -1, Value: v})
		}
	}
}

func mapRangeSchedule(e *sim.Engine, m map[int]sim.Time) {
	for _, at := range m { // want detrand "event scheduling (Engine.MustAt)"
		e.MustAt(at, func() {})
	}
}

func mapRangeAppend(m map[string]int) []string {
	var out []string
	for k := range m { // want detrand "ordered output (append inside the loop, never sorted)"
		out = append(out, k)
	}
	return out
}

func sortedKeysOK(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sliceRangeOK(e *sim.Engine, ats []sim.Time) {
	for _, at := range ats { // slices iterate in index order
		e.MustAt(at, func() {})
	}
}
