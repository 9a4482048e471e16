package network

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"optsync/internal/sim"
)

// TestDelayStreamCostPerSender is the floor under the per-sender fixed
// cost: once every sender has drawn a delay, the streams behind them cost
// a slice slot, a rand.Rand and 16 bytes of generator state each. With
// math/rand's 607-word source it was 4.9 KB per sender, seeded inside the
// sender's first Broadcast.
func TestDelayStreamCostPerSender(t *testing.T) {
	const n, maxBytes = 4096, 128
	nt := New(sim.New(1), n, Uniform{Min: 0.002, Max: 0.01}, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for from := 0; from < n; from++ {
		if d := nt.linkDelay(from, (from+1)%n, 0); d < 0.002 || d >= 0.01 {
			t.Fatalf("sender %d drew delay %v outside [0.002, 0.01)", from, d)
		}
	}
	runtime.ReadMemStats(&after)
	perSender := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("delay streams: %.0f B per sender", perSender)
	if perSender > maxBytes {
		t.Errorf("delay streams cost %.0f B per sender, budget %d", perSender, maxBytes)
	}
}

// TestUniformThroughStream: the delay model did not move with the
// generator. Uniform over a sim.Stream stays in [Min, Max) and its sample
// mean sits within 3 sigma of the midpoint (sigma of a uniform mean over N
// draws is (Max-Min)/sqrt(12 N)).
func TestUniformThroughStream(t *testing.T) {
	const draws = 200000
	u := Uniform{Min: 0.002, Max: 0.01}
	for _, tc := range []struct {
		seed int64
		id   int
	}{{0, 0}, {1, 0}, {1, 1}, {-1, 7}, {65544, 65535}} {
		rng := rand.New(sim.NewStream(tc.seed, tc.id, sim.DelayStream))
		sum := 0.0
		for i := 0; i < draws; i++ {
			d := u.Delay(tc.id, 0, 0, rng)
			if d < u.Min || d >= u.Max {
				t.Fatalf("seed %d sender %d: delay %v outside [%v, %v)", tc.seed, tc.id, d, u.Min, u.Max)
			}
			sum += d
		}
		mean, mid := sum/draws, (u.Min+u.Max)/2
		sigma := (u.Max - u.Min) / math.Sqrt(12*draws)
		if math.Abs(mean-mid) > 3*sigma {
			t.Errorf("seed %d sender %d: mean delay %v is %.1f sigma from the midpoint %v",
				tc.seed, tc.id, mean, math.Abs(mean-mid)/sigma, mid)
		}
	}
}
