package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// tieHeavyKey draws a key from small field ranges, so every prefix of
// (At, Cause, Lane, Seq) ties often; one draw in eight is a window sentinel.
func tieHeavyKey(rng *rand.Rand) Key {
	at := Time(rng.Intn(3))
	switch rng.Intn(16) {
	case 0:
		return keyBefore(at)
	case 1:
		return keyAfter(at)
	}
	return Key{At: at, Cause: Time(rng.Intn(3)) / 2, Lane: int32(rng.Intn(4)) - 1, Seq: uint32(rng.Intn(3))}
}

// TestKeyCompareMatchesLess: the single-pass three-way Compare is the order
// Less defines, over random keys, tie-heavy keys and the ±Inf-cause
// sentinels.
func TestKeyCompareMatchesLess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		a, b := tieHeavyKey(rng), tieHeavyKey(rng)
		if i%2 == 0 {
			a = Key{At: rng.Float64(), Cause: rng.Float64(), Lane: rng.Int31() - math.MaxInt32/2, Seq: rng.Uint32()}
		}
		want := 0
		switch {
		case a.Less(b):
			want = -1
		case b.Less(a):
			want = 1
		}
		if got := a.Compare(b); got != want {
			t.Fatalf("(%+v).Compare(%+v) = %d, Less says %d", a, b, got, want)
		}
		if got := b.Compare(a); got != -want {
			t.Fatalf("(%+v).Compare(%+v) = %d, Less says %d", b, a, got, -want)
		}
		if (a == b) != (want == 0) {
			t.Fatalf("%+v and %+v: equal = %v, order %d", a, b, a == b, want)
		}
	}
}

// TestSealSortsEitherSideOfCutOver: a bucket of n events drains in Key order
// whichever of seal's sorts the size selects — insertion up to ladderBinMin,
// distribution over bins up to a chunk, a comparison sort of a gathered
// bucket beyond — ties and sentinel-like extremes included, over instants
// that stress the bins: one instant (an unguarded scale is +Inf and the bin
// NaN), two, a spread with its maximum repeated (the bin clamped to the
// last), and instants one ulp apart. The instants all fall into one rung-0
// bucket and one rung-1 bucket, so each n is one seal of n events.
func TestSealSortsEitherSideOfCutOver(t *testing.T) {
	const base = 5.3 * ladderDefaultWidth
	ulps := func(k int) Time { return math.Float64frombits(math.Float64bits(base) + uint64(k)) }
	for _, c := range []struct {
		name    string
		instant func(rng *rand.Rand, i int) Time
	}{
		{"tie-heavy", func(rng *rand.Rand, _ int) Time { return base + Time(rng.Intn(3))*1e-9 }},
		{"one-instant", func(*rand.Rand, int) Time { return base }},
		{"two-instants", func(rng *rand.Rand, _ int) Time { return base + Time(rng.Intn(2))*1e-9 }},
		{"max-instant", func(rng *rand.Rand, i int) Time {
			if i%3 == 0 {
				return base + 1e-9
			}
			return base + rng.Float64()*1e-9
		}},
		{"one-ulp-apart", func(rng *rand.Rand, _ int) Time { return ulps(rng.Intn(2)) }},
		{"ulp-consecutive", func(_ *rand.Rand, i int) Time { return ulps(i) }},
	} {
		name, rng := c.name, rand.New(rand.NewSource(11))
		for n := 1; n <= 2*ladderChunk+1; n++ {
			var l ladder
			want := make([]Key, n)
			for i := range want {
				k := tieHeavyKey(rng)
				k.At = c.instant(rng, i)
				want[i] = k
				l.push(0, msgEvent{key: k, msg: Message{Index: uint32(i)}})
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].Less(want[j]) })
			for i := range want {
				// Equal keys cannot occur in a run ((Lane, Seq) is unique), so
				// the sorts may permute them: compare keys only.
				ev := l.peek()
				if ev == nil {
					t.Fatalf("%s n=%d: ladder empty at position %d", name, n, i)
				}
				k := ev.key
				if got := *l.pop(); got.key != k || k != want[i] {
					t.Fatalf("%s n=%d: position %d holds %+v (peek %+v), want %+v", name, n, i, got.key, k, want[i])
				}
			}
			if l.peek() != nil || l.stats.Seals != 1 || l.stats.Sealed != uint64(n) {
				t.Fatalf("%s n=%d: after %d pops the ladder is not one seal of n, now empty: %+v", name, n, n, l.stats)
			}
		}
	}
}
