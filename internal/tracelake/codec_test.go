package tracelake

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// colTypes maps each column index (seq, t, from, to, kind, round, value,
// aux) to its column type.
var colTypes = [numCols]string{"u64", "f64", "i32", "i32", "u16", "i32", "f64", "f64"}

// encodeColumn frames col ([]uint64, []float64, []int32 or []uint16) with
// the writer's column encoder.
func encodeColumn(e *colEncoder, col any) []byte {
	var frame []byte
	switch v := col.(type) {
	case []uint64:
		frame, _, _ = ints(e, nil, v, 0, false)
	case []float64:
		frame, _, _ = ints(e, nil, images(v), 0, true)
	case []int32:
		frame, _, _ = ints(e, nil, v, i32Bias, false)
	case []uint16:
		frame, _, _ = ints(e, nil, v, 0, false)
	}
	return frame
}

// decodeColumn decodes frame as column ci of an n-row block through
// decodeCol, the block reader's per-column step, and returns that column.
// The frame's body is followed by eight 0xff bytes, the worst padding a
// zero-copy read can put there, and the rows start out dirty, so a row
// the decoder skips shows. A declared length past the body is refused, as
// the block reader refuses it before decodeCol.
func decodeColumn(frame []byte, ci, n int) (any, error) {
	if len(frame) < 5 {
		return nil, fmt.Errorf("frame is %d bytes", len(frame))
	}
	clen := int(binary.LittleEndian.Uint32(frame[1:]))
	if clen > len(frame)-5 {
		return nil, fmt.Errorf("column claims %d bytes, the frame has %d", clen, len(frame)-5)
	}
	data := append(bytes.Clone(frame[5:]), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff)
	b := &blockReader{}
	r := &b.rows
	r.Seq, r.T, r.Value, r.Aux = dirty(n, uint64(0xdead)), dirty(n, 0.5), dirty(n, 0.5), dirty(n, 0.5)
	r.From, r.To, r.Round, r.Kind = dirty(n, int32(-7)), dirty(n, int32(-7)), dirty(n, int32(-7)), dirty(n, uint16(7))
	if err := b.decodeCol(r, ci, frame[0], data, clen); err != nil {
		return nil, err
	}
	return [numCols]any{r.Seq, r.T, r.From, r.To, r.Kind, r.Round, r.Value, r.Aux}[ci], nil
}

func dirty[T any](n int, v T) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// sameBits reports whether two columns of one type hold the same values
// bit for bit (a float column compares IEEE-754 images, so NaN payloads
// and the sign of zero count).
func sameBits(got, want any) bool {
	if g, ok := got.([]float64); ok {
		w := want.([]float64)
		if len(g) != len(w) {
			return false
		}
		for i := range g {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				return false
			}
		}
		return true
	}
	return reflect.DeepEqual(got, want)
}

// colCase is one column, the codec the encoder must pick for it, and the
// type name colTypes uses for it.
type colCase struct {
	name  string
	typ   string
	col   any
	codec byte
}

// fromImages converts a column of uint64 images into typ's values: u64 as
// is, f64 the bit pattern, i32 the image shifted down by i32Bias, u16 the
// low 16 bits.
func fromImages(typ string, img []uint64) any {
	switch typ {
	case "f64":
		v := make([]float64, len(img))
		for i, x := range img {
			v[i] = math.Float64frombits(x)
		}
		return v
	case "i32":
		v := make([]int32, len(img))
		for i, x := range img {
			v[i] = int32(int64(x) - i32Bias)
		}
		return v
	case "u16":
		v := make([]uint16, len(img))
		for i, x := range img {
			v[i] = uint16(x)
		}
		return v
	}
	return img
}

// codecCases builds, per column type, a column for every codec that type
// carries: const at the type's extremes, packed at every width it can
// hold (1-57 and 64), delta on a column with outliers, and the dictionary
// on float columns.
func codecCases() []colCase {
	rng := rand.New(rand.NewSource(37))
	negZero := math.Copysign(0, -1)
	denorm := math.SmallestNonzeroFloat64
	nan2 := math.Float64frombits(0x7ff8000000000001 | 1<<40)
	var cases []colCase
	add := func(name, typ string, col any, codec byte) {
		cases = append(cases, colCase{name, typ, col, codec})
	}

	// const: every row one value, at each type's edges.
	for _, v := range []uint64{0, 1, 1<<63 - 1, 1 << 63, math.MaxUint64 - 1, math.MaxUint64} {
		add(fmt.Sprintf("const/%#x", v), "u64", dirty(300, v), codecConst)
	}
	for _, v := range []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), nan2, denorm, -denorm, math.MaxFloat64, -1.5} {
		add(fmt.Sprintf("const/%v", v), "f64", dirty(300, v), codecConst)
	}
	for _, v := range []int32{math.MinInt32, math.MinInt32 + 1, -1, 0, 1, math.MaxInt32} {
		add(fmt.Sprintf("const/%d", v), "i32", dirty(300, v), codecConst)
	}
	for _, v := range []uint16{0, 1, math.MaxUint16} {
		add(fmt.Sprintf("const/%d", v), "u16", dirty(300, v), codecConst)
	}
	add("const/one-row", "i32", []int32{math.MinInt32}, codecConst)

	// packed: residuals of exactly width w above a base, at the bottom
	// and the top of each type's image range. Widths 58-63 are stored at
	// 64, so a column spanning 64 bits stands for them. Below width 64 the
	// decoders unpack 8, 4, 2 or 1 rows a load, so the row counts leave
	// every remainder modulo 8 and fill a block to its last row and to one
	// short of it. Width 64 is raw words, one a row. A one-row column is
	// const (const/one-row above).
	tails := []int{2, 3, 5, 6, 7, 8, 9, 15, 16, 17, 300, blockRows - 1, blockRows}
	maxWidth := map[string]int{"u64": 64, "f64": 64, "i32": 32, "u16": 16}
	for _, typ := range []string{"u64", "f64", "i32", "u16"} {
		top := uint64(math.MaxUint64) >> (64 - maxWidth[typ])
		for w := 1; w <= maxWidth[typ]; w++ {
			if w > 57 && w < 64 {
				continue
			}
			span := uint64(math.MaxUint64) >> (64 - w)
			counts := tails
			if w == 64 {
				counts = []int{3, 5, 300}
			}
			for _, base := range []uint64{0, top - span} {
				for _, n := range counts {
					img := make([]uint64, n)
					for i := range img {
						img[i] = base + rng.Uint64()&span
					}
					img[0], img[n-1] = base, base+span // pin the width
					add(fmt.Sprintf("packed/w%d/base%#x/n%d", w, base, n), typ, fromImages(typ, img), codecPacked)
				}
			}
		}
	}
	// Past dictMaxEntries distinct images a float column packs, specials
	// and all.
	special := []float64{0, negZero, math.Inf(1), math.Inf(-1), math.NaN(), nan2, denorm, -denorm, 1, -1}
	wide := make([]float64, 100)
	for i := range wide {
		wide[i] = math.Float64frombits(rng.Uint64())
	}
	copy(wide[40:], special)
	add("packed/w64/specials", "f64", wide, codecPacked)

	// delta: a ramp with rare wide outliers, where varints are more than
	// twice as dense as packing. A u16 column is never delta-coded
	// (packing at 16 bits or less always wins), so it has no such case.
	for _, typ := range []string{"u64", "f64", "i32"} {
		for _, outlier := range []uint64{1 << 24, 1 << 31, math.MaxUint32, 1 << 60, math.MaxUint64} {
			if typ == "i32" && outlier > math.MaxUint32 {
				continue
			}
			img := make([]uint64, 400)
			for i := range img {
				img[i] = uint64(i)
			}
			img[7], img[399] = outlier, outlier-1
			add(fmt.Sprintf("delta/outlier%#x", outlier), typ, fromImages(typ, img), codecDelta)
		}
	}
	ramp := make([]uint64, 600)
	for i := range ramp {
		ramp[i] = math.MaxUint64 - 600 + uint64(i)
	}
	ramp[300] = 3
	add("delta/ramp-near-2^64", "u64", ramp, codecDelta)
	add("delta/ramp-near-2^64", "f64", fromImages("f64", ramp), codecDelta)

	// dict: float columns drawing from a small palette, specials included.
	for _, n := range []int{100, 500, blockRows} {
		col := make([]float64, n)
		for i := range col {
			col[i] = special[rng.Intn(len(special))]
		}
		add(fmt.Sprintf("dict/specials/n%d", n), "f64", col, codecDict)
	}
	// Every index width the writer emits (1-6 bits: 2 to 33 entries, each
	// entry present) at the counts above that leave the dictionary room
	// to win, so the 8-a-load index loop ends on every tail.
	for _, nd := range []int{2, 3, 5, 9, 17, 33} {
		entries := make([]float64, nd)
		for i := range entries {
			entries[i] = math.Float64frombits(rng.Uint64())
		}
		for _, n := range tails {
			if n < 2*nd {
				continue
			}
			col := make([]float64, n)
			for i := range col {
				col[i] = entries[rng.Intn(nd)]
			}
			copy(col, entries)
			add(fmt.Sprintf("dict/%d-entries/n%d", nd, n), "f64", col, codecDict)
		}
	}
	palette := make([]float64, dictMaxEntries)
	for i := range palette {
		palette[i] = math.Float64frombits(rng.Uint64())
	}
	col := make([]float64, blockRows)
	for i := range col {
		col[i] = palette[i%len(palette)]
	}
	add("dict/64-entries", "f64", col, codecDict)
	return cases
}

// TestColumnCodecsRoundTrip: every column type, under every codec the
// encoder picks for it, decodes through decodeCol into every column of
// that type, bit for bit.
func TestColumnCodecsRoundTrip(t *testing.T) {
	var e colEncoder
	seen := map[string]map[byte]int{}
	for _, tc := range codecCases() {
		frame := encodeColumn(&e, tc.col)
		if frame[0] != tc.codec {
			t.Fatalf("%s %s: encoder chose codec %#x, want %#x", tc.typ, tc.name, frame[0], tc.codec)
		}
		if seen[tc.typ] == nil {
			seen[tc.typ] = map[byte]int{}
		}
		seen[tc.typ][tc.codec]++
		for ci, typ := range colTypes {
			if typ != tc.typ {
				continue
			}
			got, err := decodeColumn(frame, ci, reflect.ValueOf(tc.col).Len())
			if err != nil {
				t.Fatalf("%s %s: column %d: %v", tc.typ, tc.name, ci, err)
			}
			if !sameBits(got, tc.col) {
				t.Fatalf("%s %s: column %d decodes to\n%v\nwant\n%v", tc.typ, tc.name, ci, got, tc.col)
			}
		}
	}
	// A u16 delta frame is legal though the encoder never writes one: the
	// first value is the row's own 16 bits and the deltas wrap.
	kinds := []uint16{0, math.MaxUint16, 1, 40000, 0, math.MaxUint16, math.MaxUint16}
	frame := appendColHeader(nil, codecDelta, 0)
	frame = binary.LittleEndian.AppendUint64(frame, uint64(kinds[0]))
	for i := 1; i < len(kinds); i++ {
		frame = appendPV(frame, zigzag(int64(kinds[i])-int64(kinds[i-1])))
	}
	binary.LittleEndian.PutUint32(frame[1:], uint32(len(frame)-5))
	if got, err := decodeColumn(frame, 4, len(kinds)); err != nil || !sameBits(got, kinds) {
		t.Fatalf("u16 delta frame decodes to %v, %v; want %v", got, err, kinds)
	}

	want := map[string][]byte{
		"u64": {codecConst, codecPacked, codecDelta},
		"f64": {codecConst, codecPacked, codecDelta, codecDict},
		"i32": {codecConst, codecPacked, codecDelta},
		"u16": {codecConst, codecPacked},
	}
	for typ, codecs := range want {
		for _, c := range codecs {
			if seen[typ][c] == 0 {
				t.Errorf("%s: no case under codec %#x", typ, c)
			}
		}
	}
}

// TestDictionaryIsFloatOnly: a valid dictionary frame decodes bit for bit
// as every float column (t, value, aux) and is refused as every integer
// column (seq, from, to, kind, round), though an integer column's rows
// could hold its indices or images.
func TestDictionaryIsFloatOnly(t *testing.T) {
	col := make([]float64, 300)
	for i := range col {
		col[i] = []float64{1.5, math.Inf(-1), math.NaN()}[i%3]
	}
	frame := encodeColumn(&colEncoder{}, col)
	if frame[0] != codecDict {
		t.Fatalf("encoder chose codec %#x, want the dictionary", frame[0])
	}
	for ci, typ := range colTypes {
		got, err := decodeColumn(frame, ci, len(col))
		if typ == "f64" {
			if err != nil || !sameBits(got, col) {
				t.Errorf("column %d decodes to %v, %v; want the column back", ci, got, err)
			}
			continue
		}
		if err == nil || err.Error() != "dictionary codec on non-float column" {
			t.Errorf("%s column %d: got error %v, want the dictionary refused", typ, ci, err)
		}
	}
}

// FuzzColumnRoundTrip builds one column from the fuzz bytes, encodes it
// with the writer's column encoder and decodes it through decodeCol, which
// must give it back bit for bit; then it flips one byte of the frame and
// decodes again, which must fail or give values but never panic.
//
// shape picks the column: bits 0-1 the type (u64, f64, i32, u16), bit 2
// whether row i's image is word i or the running sum of words 0..i, bits
// 3-4 which column of that type it is decoded as. The words are data's
// 8-byte little-endian words, repeated; outlier, when non-zero, replaces
// row outlierAt's image. Seeds under testdata/fuzz/FuzzColumnRoundTrip: a
// const column, packed columns at widths 57 and 64, a delta column with
// one outlier and a 64-entry dictionary.
//
//	go test -run xxx -fuzz FuzzColumnRoundTrip -fuzztime 10s -fuzzminimizetime 1s ./internal/tracelake
func FuzzColumnRoundTrip(f *testing.F) {
	types := []string{"u64", "f64", "i32", "u16"}
	var e colEncoder
	f.Fuzz(func(t *testing.T, shape uint8, rows uint16, data []byte, outlierAt uint16, outlier uint64, at uint16, flip uint8) {
		n := 1 + int(rows)%blockRows
		words := make([]uint64, max(1, (len(data)+7)/8))
		for i := range words {
			var w [8]byte
			copy(w[:], data[min(8*i, len(data)):])
			words[i] = binary.LittleEndian.Uint64(w[:])
		}
		img := make([]uint64, n)
		for i := range img {
			img[i] = words[i%len(words)]
			if shape&4 != 0 && i > 0 {
				img[i] += img[i-1]
			}
		}
		if outlier != 0 {
			img[int(outlierAt)%n] = outlier
		}
		typ := types[shape&3]
		var cis []int
		for ci, ct := range colTypes {
			if ct == typ {
				cis = append(cis, ci)
			}
		}
		ci := cis[int(shape>>3)%len(cis)]
		col := fromImages(typ, img)

		frame := encodeColumn(&e, col)
		if frame[0] == codecDict && typ != "f64" {
			t.Fatalf("%s column encoded as a dictionary", typ)
		}
		got, err := decodeColumn(frame, ci, n)
		if err != nil {
			t.Fatalf("%s column %d under codec %#x: %v", typ, ci, frame[0], err)
		}
		if !sameBits(got, col) {
			t.Fatalf("%s column %d under codec %#x decodes to\n%v\nwant\n%v", typ, ci, frame[0], got, col)
		}

		if flip != 0 {
			frame[int(at)%len(frame)] ^= flip
			decodeColumn(frame, ci, n)
		}
	})
}
