package tracelake

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"

	"optsync/internal/probe"
)

// colDiff drives the production column encoder and the reference one
// (encode_ref_test.go) with the same column and compares the frames byte
// for byte. Frames are appended behind a short prefix into a buffer
// whose spare capacity is dirty, as the writer's recycled scratch is.
type colDiff struct {
	t     testing.TB
	enc   colEncoder
	ref   refEncoder
	dirty []byte
	used  int // bytes of dirty the last frame overwrote
}

func newColDiff(t testing.TB) *colDiff {
	return &colDiff{t: t, dirty: bytes.Repeat([]byte{0xa5}, 9*blockRows+64)}
}

func (d *colDiff) dst() []byte {
	for i := range d.dirty[:d.used] {
		d.dirty[i] = 0xa5
	}
	return append(d.dirty[:0], 1, 2, 3)
}

// check compares the two frames and returns the production one without
// the prefix.
func (d *colDiff) check(got, want []byte, col any) []byte {
	d.t.Helper()
	d.used = min(len(got), len(d.dirty))
	if !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		d.t.Fatalf("frames differ at byte %d (got %d bytes, codec %#x; want %d bytes, codec %#x)\ncolumn: %v",
			at-3, len(got)-3, got[3], len(want)-3, want[3], col)
	}
	return got[3:]
}

func (d *colDiff) u64(v []uint64) []byte {
	d.t.Helper()
	want := d.ref.appendU64Col([]byte{1, 2, 3}, v)
	got, _, _ := ints(&d.enc, d.dst(), v, 0, false)
	return d.check(got, want, v)
}

func (d *colDiff) f64(v []float64) []byte {
	d.t.Helper()
	want := d.ref.appendF64Col([]byte{1, 2, 3}, v)
	got, _, _ := ints(&d.enc, d.dst(), images(v), 0, true)
	return d.check(got, want, v)
}

func (d *colDiff) i32(v []int32) []byte {
	d.t.Helper()
	want := d.ref.appendI32Col([]byte{1, 2, 3}, v)
	got, _, _ := ints(&d.enc, d.dst(), v, i32Bias, false)
	return d.check(got, want, v)
}

func (d *colDiff) u16(v []uint16) []byte {
	d.t.Helper()
	want := d.ref.appendU16Col([]byte{1, 2, 3}, v)
	got, _, _ := ints(&d.enc, d.dst(), v, 0, false)
	return d.check(got, want, v)
}

// images encodes one uint64 image column as every type it fits: u64 and
// f64 (its bit patterns) always, i32 and u16 when base+span stays inside
// the type. It returns the u64 frame.
func (d *colDiff) images(img []uint64) []byte {
	d.t.Helper()
	f := make([]float64, len(img))
	fits32, fits16 := true, true
	for i, x := range img {
		f[i] = math.Float64frombits(x)
		fits32 = fits32 && x <= math.MaxUint32
		fits16 = fits16 && x <= math.MaxUint16
	}
	d.f64(f)
	if fits32 {
		v := make([]int32, len(img))
		for i, x := range img {
			v[i] = int32(int64(x) + math.MinInt32) // image order == int32 order
		}
		d.i32(v)
	}
	if fits16 {
		v := make([]uint16, len(img))
		for i, x := range img {
			v[i] = uint16(x)
		}
		d.u16(v)
	}
	return d.u64(img)
}

// frameCodec and frameWidth read a column frame's codec byte and, for a
// packed frame, its width byte (codec, u32 length, 8-byte base, width).
func frameCodec(frame []byte) byte { return frame[0] }
func frameWidth(frame []byte) int  { return int(frame[13]) }

// randImages draws a column in one of the shapes real traces and the
// codec boundaries have: constant, a base plus residuals of one width,
// a slowly rising counter, a small palette, small steps with outliers,
// raw noise.
func randImages(rng *rand.Rand, n int, limit uint64) []uint64 {
	img := make([]uint64, n)
	clamp := func(x uint64) uint64 {
		if limit != 0 {
			return x % (limit + 1)
		}
		return x
	}
	switch rng.Intn(6) {
	case 0:
		c := clamp(rng.Uint64())
		for i := range img {
			img[i] = c
		}
	case 1:
		w := uint(1 + rng.Intn(64))
		base := rng.Uint64() >> uint(rng.Intn(64))
		for i := range img {
			img[i] = clamp(base + rng.Uint64()>>(64-w))
		}
	case 2:
		x := rng.Uint64() >> uint(rng.Intn(64))
		step := uint64(1) << uint(rng.Intn(20))
		for i := range img {
			x += uint64(rng.Int63n(int64(step)))
			img[i] = clamp(x)
		}
	case 3:
		palette := make([]uint64, 1+rng.Intn(70))
		for i := range palette {
			palette[i] = clamp(rng.Uint64() >> uint(rng.Intn(64)))
		}
		for i := range img {
			img[i] = palette[rng.Intn(len(palette))]
		}
	case 4:
		x := clamp(rng.Uint64() >> uint(rng.Intn(64)))
		for i := range img {
			x += uint64(rng.Intn(3)) - 1
			img[i] = clamp(x)
			if rng.Intn(1+n/2) == 0 {
				img[i] = clamp(rng.Uint64() >> uint(rng.Intn(64)))
			}
		}
	default:
		for i := range img {
			img[i] = clamp(rng.Uint64())
		}
	}
	return img
}

// randRows is mostly short columns (the encoder's decisions do not need
// length to vary much, and the reference is slow) with the block-size
// edges mixed in.
func randRows(rng *rand.Rand) int {
	switch k := rng.Intn(1000); {
	case k < 2:
		return blockRows - rng.Intn(2)
	case k < 300:
		return 1 + rng.Intn(128)
	default:
		return 1 + rng.Intn(24)
	}
}

// TestEncoderMatchesReferenceRandom: 10^5 seeded random columns per type
// encode to the reference's bytes.
func TestEncoderMatchesReferenceRandom(t *testing.T) {
	columns := 100_000
	if testing.Short() {
		columns = 5_000
	}
	d := newColDiff(t)
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < columns; i++ {
		n := randRows(rng)
		d.u64(randImages(rng, n, 0))

		f := make([]float64, n)
		for j, x := range randImages(rng, n, 0) {
			f[j] = math.Float64frombits(x)
		}
		d.f64(f)

		v32 := make([]int32, n)
		for j, x := range randImages(rng, n, math.MaxUint32) {
			v32[j] = int32(uint32(x))
		}
		d.i32(v32)

		v16 := make([]uint16, n)
		for j, x := range randImages(rng, n, math.MaxUint16) {
			v16[j] = uint16(x)
		}
		d.u16(v16)
	}
}

// TestEncoderMatchesReferenceEdges walks the boundaries the codec choice
// and the packer have, on every column type that can hold them.
func TestEncoderMatchesReferenceEdges(t *testing.T) {
	d := newColDiff(t)
	rng := rand.New(rand.NewSource(21))

	t.Run("rows", func(t *testing.T) {
		d.t = t
		for _, n := range []int{1, 2, blockRows - 1, blockRows} {
			ramp, same, noise := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			for i := range ramp {
				ramp[i], same[i], noise[i] = 1000+3*uint64(i), 77, uint64(rng.Intn(1<<16))
			}
			d.images(ramp)
			d.images(noise)
			if got := frameCodec(d.images(same)); got != codecConst {
				t.Fatalf("n=%d: an all-equal column chose codec %#x", n, got)
			}
		}
	})

	t.Run("widths", func(t *testing.T) {
		d.t = t
		for _, w := range []int{1, 8, 16, 17, 56, 57, 58, 64} {
			for _, base := range []uint64{0, 12345, 1 << 40} {
				for _, n := range []int{2, 9, 300, blockRows} {
					img := make([]uint64, n)
					for i := range img {
						img[i] = base + rng.Uint64()>>(64-uint(w))
					}
					img[0], img[n-1] = base, base+1<<(w-1) // pin min and the top bit
					frame := d.images(img)
					want := w
					if w > 57 {
						want = 64
					}
					if frameCodec(frame) == codecPacked && frameWidth(frame) != want {
						t.Fatalf("width %d, n=%d: packed at %d bits, want %d", w, n, frameWidth(frame), want)
					}
				}
			}
		}
	})

	t.Run("i32", func(t *testing.T) {
		d.t = t
		d.i32([]int32{math.MinInt32, math.MaxInt32})
		d.i32([]int32{math.MaxInt32, math.MinInt32, 0, -1, 1})
		d.i32([]int32{-1, -1, -1, -1}) // a skew sample's from/to
		d.i32([]int32{-1})
		d.i32([]int32{-1, 0, -1, 31, -1})
		d.i32([]int32{math.MinInt32, math.MinInt32 + 1})
		d.i32([]int32{math.MaxInt32 - 1, math.MaxInt32})
		span := make([]int32, blockRows)
		for i := range span {
			span[i] = int32(rng.Uint32())
		}
		span[7], span[8] = math.MinInt32, math.MaxInt32
		d.i32(span)
		d.u16([]uint16{0, math.MaxUint16})
		d.u64([]uint64{0, math.MaxUint64})
		d.u64([]uint64{math.MaxUint64, 0, 1 << 63, 1<<63 - 1})
	})

	t.Run("floats", func(t *testing.T) {
		d.t = t
		negZero := math.Copysign(0, -1)
		denorm := math.SmallestNonzeroFloat64
		nan2 := math.Float64frombits(0x7ff8000000000001 | 1<<40)
		special := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), nan2,
			denorm, -denorm, 5 * denorm, math.MaxFloat64, -math.MaxFloat64, 1, -1}
		d.f64(special)
		d.f64([]float64{0, negZero}) // not equal: the images differ
		d.f64([]float64{negZero, negZero, negZero})
		d.f64([]float64{math.NaN(), math.NaN()})
		d.f64([]float64{math.NaN(), nan2})
		d.f64([]float64{denorm, 2 * denorm, 3 * denorm, 0})
		d.f64([]float64{-1, 1}) // negative images sort above positive ones
		for _, n := range []int{len(special), 500, blockRows} {
			col := make([]float64, n)
			for i := range col {
				col[i] = special[rng.Intn(len(special))]
			}
			if got := frameCodec(d.f64(col)); n >= 500 && got != codecDict {
				t.Fatalf("n=%d: %d special values chose codec %#x, want the dictionary", n, len(special), got)
			}
		}
	})

	t.Run("dict_entries", func(t *testing.T) {
		d.t = t
		// Unrelated images (packed would need 64 bits a row), so the
		// dictionary wins whenever it is allowed to exist.
		for _, tc := range []struct {
			distinct int
			want     byte
		}{{dictMaxEntries, codecDict}, {dictMaxEntries + 1, codecPacked}} {
			palette := make([]float64, tc.distinct)
			for i := range palette {
				palette[i] = math.Float64frombits(rng.Uint64())
			}
			col := make([]float64, blockRows)
			for i := range col {
				col[i] = palette[i%len(palette)]
			}
			if got := frameCodec(d.f64(col)); got != tc.want {
				t.Fatalf("%d distinct values chose codec %#x, want %#x", tc.distinct, got, tc.want)
			}
		}
	})

	t.Run("dict_ties_packed", func(t *testing.T) {
		d.t = t
		// Two images three apart: packed needs 2 bits a row, the dictionary
		// 1 bit plus its 16-byte table. At 72 rows both frames are 27 bytes
		// and the dictionary, which has to be strictly smaller, loses; at 80
		// it is 28 against 29 and wins.
		for _, tc := range []struct {
			n    int
			want byte
		}{{72, codecPacked}, {80, codecDict}} {
			col := make([]float64, tc.n)
			for i := range col {
				col[i] = math.Float64frombits(0x3ff0000000000000 + 3*uint64(i&1))
			}
			frame := d.f64(col)
			if frameCodec(frame) != tc.want {
				t.Fatalf("n=%d: codec %#x, want %#x", tc.n, frameCodec(frame), tc.want)
			}
			if tc.n == 72 && dictSize(72, 2) != int(binary.LittleEndian.Uint32(frame[1:])) {
				t.Fatalf("n=72 is no tie: dictionary %d bytes, packed %d", dictSize(72, 2), binary.LittleEndian.Uint32(frame[1:]))
			}
		}
	})

	t.Run("outlier_tips_delta", func(t *testing.T) {
		d.t = t
		// Rows alternate 0 and 1 (one varint byte each) and end in a 17-bit
		// outlier (three bytes). At 72 rows psize = 9+153 = 162 = 2*(8+70+3):
		// packed keeps the tie. One row more and it is 165 against 164.
		for _, tc := range []struct {
			n    int
			want byte
		}{{72, codecPacked}, {73, codecDelta}} {
			img := make([]uint64, tc.n)
			for i := range img {
				img[i] = uint64(i & 1)
			}
			img[tc.n-1] = 1 << 16
			if got := frameCodec(d.images(img)); got != tc.want {
				t.Fatalf("n=%d: codec %#x, want %#x", tc.n, got, tc.want)
			}
		}
	})
}

// TestBlockBoundsMatchReference: the footer entry's time, node and round
// bounds come out of the column passes; they equal the row scan they
// replaced, bit for bit, on times no simulation produces too (negative,
// -0, infinite, NaN).
func TestBlockBoundsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	odd := []float64{math.Copysign(0, -1), 0, -1.5, math.Inf(1), math.Inf(-1), math.NaN(), -math.SmallestNonzeroFloat64}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(40)
		c := newColBuf(probe.TypePulse, n)
		c.n = n
		mode := rng.Intn(4)
		for i := 0; i < n; i++ {
			c.Seq[i] = uint64(i)
			switch mode {
			case 0: // what a run writes
				c.T[i] = rng.Float64() * 100
			case 1:
				c.T[i] = rng.NormFloat64()
			default:
				c.T[i] = odd[rng.Intn(len(odd))]
				if mode == 3 && rng.Intn(2) == 0 {
					c.T[i] = rng.Float64()
				}
			}
			c.From[i], c.To[i], c.Round[i] = int32(rng.Uint32())>>uint(rng.Intn(32)), int32(rng.Intn(64))-1, int32(rng.Uint32())
		}
		if trial%7 == 0 {
			c.From[0], c.Round[n-1] = math.MinInt32, math.MaxInt32
		}
		e := blockEncoder{out: io.Discard}
		if err := e.block(&c); err != nil {
			t.Fatal(err)
		}
		got, want := e.blocks[0], refBounds(&c)
		if math.Float64bits(got.tMin) != math.Float64bits(want.tMin) || math.Float64bits(got.tMax) != math.Float64bits(want.tMax) ||
			got.nodeMin != want.nodeMin || got.nodeMax != want.nodeMax || got.roundMin != want.roundMin || got.roundMax != want.roundMax {
			t.Fatalf("footer bounds diverge on t=%v from=%v to=%v round=%v:\n got %+v\nwant %+v", c.T, c.From, c.To, c.Round, got, want)
		}
	}
}

// TestPVLenMatchesReference: the closed-form varint size agrees with the
// loop it replaced at every byte boundary.
func TestPVLenMatchesReference(t *testing.T) {
	for shift := 0; shift < 64; shift++ {
		for _, v := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1, math.MaxUint64 >> shift} {
			if got, want := pvLen(v), refPVLen(v); got != want {
				t.Fatalf("pvLen(%#x) = %d, the reference says %d", v, got, want)
			}
			if got := len(appendPV(nil, v)); got != pvLen(v) {
				t.Fatalf("pvLen(%#x) = %d, appendPV wrote %d bytes", v, pvLen(v), got)
			}
		}
	}
}
