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

// TestSealSortsEitherSideOfCutOver: seal orders a bucket by Key whichever of
// its two sorts the size selects, ties and sentinel-like extremes included.
func TestSealSortsEitherSideOfCutOver(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n <= 3*ladderInsertionMax; n++ {
		var l ladder
		b := make([]msgEvent, n)
		for i := range b {
			b[i] = msgEvent{key: tieHeavyKey(rng), msg: Message{Index: uint32(i)}}
		}
		want := append([]msgEvent(nil), b...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].key.Less(want[j].key) })
		l.r0.buckets[0] = b
		l.seal(&l.r0, 0)
		for i := range want {
			// Equal keys cannot occur in a run ((Lane, Seq) is unique), so
			// either sort may permute them: compare keys only.
			if l.bottom[i].key != want[i].key {
				t.Fatalf("n=%d: position %d holds %+v, want %+v", n, i, l.bottom[i].key, want[i].key)
			}
		}
	}
}
