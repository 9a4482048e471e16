package sim

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

var bothPurposes = []Purpose{NodeStream, DelayStream}

// TestStreamIsSmallAndPointerFree pins the point of the type: the state a
// node or sender carries is 16 bytes the garbage collector never scans.
func TestStreamIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Stream{}); size > 16 {
		t.Fatalf("Stream is %d bytes, want <= 16", size)
	}
	var _ rand.Source64 = NewStream(1, 0, NodeStream)
}

// TestStreamsDistinctAtScale: at the L3 size (65 536 nodes, one node
// stream and one delay stream each) no two of the 131 072 streams of a run
// may be the same stream — the model says the processes are independent.
func TestStreamsDistinctAtScale(t *testing.T) {
	const n = 65536
	for _, seed := range []int64{0, 1, -1, 65544} {
		seen := make(map[[2]uint64][2]int, 2*n)
		for _, p := range bothPurposes {
			for id := 0; id < n; id++ {
				s := NewStream(seed, id, p)
				head := [2]uint64{s.Uint64(), s.Uint64()}
				if prev, dup := seen[head]; dup {
					t.Fatalf("seed %d: stream (id %d, purpose %d) starts like (id %d, purpose %d): %x",
						seed, id, p, prev[0], prev[1], head)
				}
				seen[head] = [2]int{id, int(p)}
			}
		}
	}
}

// TestLaggedFibonacciStreamsCollided documents the failure the generator
// swap removed, against the parent's derivation kept here as a reference:
// rand.NewSource folds its seed mod 2^31-1, so the 64-bit stream seeds
// landed on 2.1e9 states and the birthday bound bit at the L3 size — at
// the L3 spec's own seed three pairs of streams were bit-identical.
// Candidates are found by the fold and confirmed on the real generator.
func TestLaggedFibonacciStreamsCollided(t *testing.T) {
	const n = 65536
	// The parent's network.delaySalt and sim.StreamSeed.
	const delaySalt = 0x6e65742d646c79
	streamSeed := func(seed int64, id int, salt int64) int64 {
		return seed ^ int64(0x9E3779B97F4A7C15*uint64(id+1)) ^ salt
	}
	fold := func(seed int64) int64 { // rngSource.Seed's first step
		if seed %= 1<<31 - 1; seed < 0 {
			seed += 1<<31 - 1
		}
		return seed
	}
	for _, tc := range []struct {
		seed  int64
		pairs int
	}{{65544, 3}, {1, 1}, {42, 2}} {
		folded := make(map[int64]int64, 2*n)
		pairs := 0
		for _, salt := range []int64{0, delaySalt} {
			for id := 0; id < n; id++ {
				full := streamSeed(tc.seed, id, salt)
				if other, dup := folded[fold(full)]; dup {
					a, b := rand.New(rand.NewSource(full)), rand.New(rand.NewSource(other))
					for i := 0; i < 1000; i++ {
						if x, y := a.Uint64(), b.Uint64(); x != y {
							t.Fatalf("seed %d: stream seeds %#x and %#x fold alike but diverge at draw %d", tc.seed, full, other, i)
						}
					}
					pairs++
				}
				folded[fold(full)] = full
			}
		}
		if pairs != tc.pairs {
			t.Errorf("seed %d: %d identical stream pairs under the parent's generator, recorded %d", tc.seed, pairs, tc.pairs)
		}
	}
}

// TestStreamsAreNotShiftedCopies catches seeding a counter-based generator
// with an arithmetic progression: SplitMix64's increment is the same
// golden-ratio constant the parent's seed derivation multiplied ids by, so
// fed that seed raw, stream k at engine seed 0 is stream 0 shifted by k
// draws. No stream's first output may occur among the first 64 outputs of
// any of streams 0..1023.
func TestStreamsAreNotShiftedCopies(t *testing.T) {
	const heads, depth, n = 1024, 64, 65536
	type at struct{ id, purpose, pos int }
	early := make(map[uint64]at, 2*heads*depth)
	for _, p := range bothPurposes {
		for id := 0; id < heads; id++ {
			s := NewStream(0, id, p)
			for pos := 0; pos < depth; pos++ {
				early[s.Uint64()] = at{id, int(p), pos}
			}
		}
	}
	for _, p := range bothPurposes {
		for id := 0; id < n; id++ {
			first := NewStream(0, id, p).Uint64()
			if hit, ok := early[first]; ok && hit != (at{id, int(p), 0}) {
				t.Fatalf("stream (id %d, purpose %d) starts at output %d of stream (id %d, purpose %d)",
					id, p, hit.pos, hit.id, hit.purpose)
			}
		}
	}
}

// streamCases are the (seed, id, purpose) triples the statistical tests
// run over: the degenerate seed, small seeds, a negative one, the L3 spec.
var streamCases = []struct {
	seed    int64
	id      int
	purpose Purpose
}{
	{0, 0, NodeStream}, {0, 0, DelayStream}, {1, 1, NodeStream},
	{-1, 7, DelayStream}, {42, 2047, NodeStream}, {65544, 65535, DelayStream},
}

// TestStreamFloat64Uniform: chi-squared over 64 equal bins on 2^20
// Float64 draws — what every delay and clock-rate draw is made of. 63
// degrees of freedom; 103.4 is the 0.1 % critical value.
func TestStreamFloat64Uniform(t *testing.T) {
	const draws, bins, critical = 1 << 20, 64, 103.4
	for _, tc := range streamCases {
		rng := rand.New(NewStream(tc.seed, tc.id, tc.purpose))
		var count [bins]int
		for i := 0; i < draws; i++ {
			count[int(rng.Float64()*bins)]++
		}
		chi2, want := 0.0, float64(draws)/bins
		for _, c := range count {
			chi2 += (float64(c) - want) * (float64(c) - want) / want
		}
		if chi2 > critical {
			t.Errorf("stream %+v: chi-squared %.1f over %d bins exceeds %.1f", tc, chi2, bins, critical)
		}
	}
}

// TestStreamEveryBitIsFair: rand.Rand.Float64 keeps the low 53 bits of
// Int63, so a generator whose low bits are weak (a bare LCG,
// xoroshiro128+) would pass a test of the high bits and still skew every
// delay. Each of the 64 output bits must be set half the time, within 4
// sigma over 2^20 draws.
func TestStreamEveryBitIsFair(t *testing.T) {
	const draws = 1 << 20
	tolerance := 4 * math.Sqrt(draws) / 2
	for _, tc := range streamCases {
		s := NewStream(tc.seed, tc.id, tc.purpose)
		var ones [64]int
		for i := 0; i < draws; i++ {
			x := s.Uint64()
			for b := range ones {
				ones[b] += int(x >> b & 1)
			}
		}
		for b, c := range ones {
			if math.Abs(float64(c)-draws/2) > tolerance {
				t.Errorf("stream %+v: bit %d set %d times in %d draws (tolerance %.0f)", tc, b, c, draws, tolerance)
			}
		}
	}
}

// TestAdjacentStreamsUncorrelated: neighbouring ids, and the two purposes
// of one id, must look independent: |Pearson r| < 0.01 over 1e5 paired
// Float64 draws (sigma of r under independence is 0.0032).
func TestAdjacentStreamsUncorrelated(t *testing.T) {
	const draws = 100000
	pearson := func(a, b *Stream) float64 {
		ra, rb := rand.New(a), rand.New(b)
		var sx, sy, sxx, syy, sxy float64
		for i := 0; i < draws; i++ {
			x, y := ra.Float64(), rb.Float64()
			sx, sy, sxx, syy, sxy = sx+x, sy+y, sxx+x*x, syy+y*y, sxy+x*y
		}
		cov := sxy/draws - sx/draws*sy/draws
		return cov / math.Sqrt((sxx/draws-sx/draws*sx/draws)*(syy/draws-sy/draws*sy/draws))
	}
	for _, seed := range []int64{0, 1, 65544} {
		for _, id := range []int{0, 1, 255, 65535} {
			for _, p := range bothPurposes {
				if r := pearson(NewStream(seed, id, p), NewStream(seed, id+1, p)); math.Abs(r) >= 0.01 {
					t.Errorf("seed %d purpose %d: streams %d and %d correlate, r = %.4f", seed, p, id, id+1, r)
				}
			}
			if r := pearson(NewStream(seed, id, NodeStream), NewStream(seed, id, DelayStream)); math.Abs(r) >= 0.01 {
				t.Errorf("seed %d: node and delay streams of id %d correlate, r = %.4f", seed, id, r)
			}
		}
	}
}
