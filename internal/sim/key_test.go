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
// whichever of seal's two sorts the size selects, ties and sentinel-like
// extremes included. The keys' instants all fall into one rung-0 bucket and
// one rung-1 bucket, so each n is one seal of n events.
func TestSealSortsEitherSideOfCutOver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 1; n <= 3*ladderInsertionMax; n++ {
		var l ladder
		want := make([]Key, n)
		for i := range want {
			k := tieHeavyKey(rng)
			k.At = 5*ladderDefaultWidth + k.At*1e-9
			want[i] = k
			l.push(0, msgEvent{key: k, msg: Message{Index: uint32(i)}})
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Less(want[j]) })
		for i := range want {
			// Equal keys cannot occur in a run ((Lane, Seq) is unique), so
			// either sort may permute them: compare keys only.
			ev := l.peek()
			if ev == nil {
				t.Fatalf("n=%d: ladder empty at position %d", n, i)
			}
			k := ev.key
			if got := l.pop(); got.key != k || k != want[i] {
				t.Fatalf("n=%d: position %d holds %+v (peek %+v), want %+v", n, i, got.key, k, want[i])
			}
		}
		if l.peek() != nil {
			t.Fatalf("n=%d: ladder not empty after %d pops", n, n)
		}
	}
}
