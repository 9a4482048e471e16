package tracelake

// The column encoder as it stood before the fused rewrite (commit
// 7c699aa), kept verbatim as the reference the differential tests in
// encode_test.go hold the production encoder to, byte for byte: one
// all-equal scan, a zigzag delta stream, a residual stream, their sizes,
// and a byte-at-a-time packer, per column type. The only edits are the
// scratch slices, which were Writer fields and are a struct here, pvLen's
// name (the production one no longer loops), and flushBlock's footer
// scan, cut out of it as refBounds. appendConstCol and dictSizeF64 came
// along because nothing outside this file calls them any more.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// appendConstCol appends a const-codec image.
func appendConstCol(dst []byte, image uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], image)
	return append(dst, b[:]...)
}

func dictSizeF64(n, nd int) int { return 1 + 8*nd + packedSize(n, dictWidth(nd)) }

// refBounds is the footer-entry scan flushBlock ran over a block's rows
// before the column passes produced the same bounds as a by-product.
func refBounds(c *colBuf) blockMeta {
	meta := blockMeta{
		tMin: math.Inf(1), tMax: math.Inf(-1),
		nodeMin: math.MaxInt32, nodeMax: math.MinInt32,
		roundMin: math.MaxInt32, roundMax: math.MinInt32,
	}
	for i := 0; i < c.n; i++ {
		meta.tMin = math.Min(meta.tMin, c.T[i])
		meta.tMax = math.Max(meta.tMax, c.T[i])
		meta.nodeMin = min(meta.nodeMin, min(c.From[i], c.To[i]))
		meta.nodeMax = max(meta.nodeMax, max(c.From[i], c.To[i]))
		meta.roundMin = min(meta.roundMin, c.Round[i])
		meta.roundMax = max(meta.roundMax, c.Round[i])
	}
	return meta
}

// refEncoder carries the scratch the old Writer kept between columns.
type refEncoder struct {
	deltas, resid, dict, didx []uint64
}

// appendNonConstCol frames and appends the column under the smaller of
// the two non-const codecs: frame-of-reference packing (base image +
// fixed-width residuals — the fast-decode path) or first value +
// prefix-varint zigzag deltas (denser under outliers).
func appendNonConstCol(dst []byte, first uint64, deltas []uint64, base uint64, resid []uint64) []byte {
	width := packedWidth(resid)
	psize := 8 + packedSize(len(resid), width)
	vsize := 8
	for _, d := range deltas {
		vsize += refPVLen(d)
	}
	// Packed decodes several times faster than varint, so it wins unless
	// varint is at least 2x denser (a heavily outlier-skewed column).
	if psize <= 2*vsize {
		dst = appendColHeader(dst, codecPacked, psize)
		dst = appendConstCol(dst, base)
		return appendPacked(dst, resid, width)
	}
	dst = appendColHeader(dst, codecDelta, vsize)
	dst = appendConstCol(dst, first)
	return appendVarints(dst, deltas)
}

func (w *refEncoder) appendU64Col(dst []byte, vals []uint64) []byte {
	if allEqU64(vals) {
		dst = appendColHeader(dst, codecConst, 8)
		return appendConstCol(dst, vals[0])
	}
	first, deltas := deltasU64(w.deltas, vals)
	w.deltas = deltas
	base, resid := residualsU64(w.resid, vals)
	w.resid = resid
	return appendNonConstCol(dst, first, deltas, base, resid)
}

func (w *refEncoder) appendF64Col(dst []byte, vals []float64) []byte {
	if allEqF64(vals) {
		dst = appendColHeader(dst, codecConst, 8)
		return appendConstCol(dst, math.Float64bits(vals[0]))
	}
	first, deltas := deltasF64(w.deltas, vals)
	w.deltas = deltas
	base, resid := residualsF64(w.resid, vals)
	w.resid = resid
	// Float columns with few distinct values (aux payloads above all)
	// beat both delta codecs with a dictionary: measure the density and
	// emit codecDict only when the measured frame is strictly smaller
	// than both alternatives. High-cardinality columns abandon the
	// probe within their first dictMaxEntries+1 distinct rows.
	dict, ok := dictBuildF64(w.dict, vals)
	w.dict = dict
	if ok && len(dict) >= 2 {
		dsize := dictSizeF64(len(vals), len(dict))
		psize := 8 + packedSize(len(resid), packedWidth(resid))
		vsize := 8
		for _, d := range deltas {
			vsize += refPVLen(d)
		}
		if dsize < psize && dsize < vsize {
			idx := dictIndexesF64(w.didx, dict, vals)
			w.didx = idx
			dst = appendColHeader(dst, codecDict, dsize)
			return appendDict(dst, dict, idx)
		}
	}
	return appendNonConstCol(dst, first, deltas, base, resid)
}

func (w *refEncoder) appendI32Col(dst []byte, vals []int32) []byte {
	if allEqI32(vals) {
		dst = appendColHeader(dst, codecConst, 8)
		return appendConstCol(dst, uint64(uint32(vals[0])))
	}
	first, deltas := deltasI32(w.deltas, vals)
	w.deltas = deltas
	base, resid := residualsI32(w.resid, vals)
	w.resid = resid
	return appendNonConstCol(dst, first, deltas, base, resid)
}

func (w *refEncoder) appendU16Col(dst []byte, vals []uint16) []byte {
	if allEqU16(vals) {
		dst = appendColHeader(dst, codecConst, 8)
		return appendConstCol(dst, uint64(vals[0]))
	}
	first, deltas := deltasU16(w.deltas, vals)
	w.deltas = deltas
	base, resid := residualsU16(w.resid, vals)
	w.resid = resid
	return appendNonConstCol(dst, first, deltas, base, resid)
}

func allEqU64(v []uint64) bool {
	for _, x := range v[1:] {
		if x != v[0] {
			return false
		}
	}
	return true
}

func allEqF64(v []float64) bool {
	b0 := math.Float64bits(v[0])
	for _, x := range v[1:] {
		if math.Float64bits(x) != b0 {
			return false
		}
	}
	return true
}

func allEqI32(v []int32) bool {
	for _, x := range v[1:] {
		if x != v[0] {
			return false
		}
	}
	return true
}

func allEqU16(v []uint16) bool {
	for _, x := range v[1:] {
		if x != v[0] {
			return false
		}
	}
	return true
}

// refPVLen is the encoded size of v as a prefix varint.
func refPVLen(v uint64) int {
	n := 1
	for x := v >> 4; x != 0; x >>= 8 {
		n++
	}
	return n
}

// packedWidth is the bit width codecPacked would use for the residual
// stream: enough for the widest residual, saturating to a raw 8-byte
// layout past 57 bits (where a value could straddle more than one
// 64-bit load).
func packedWidth(resid []uint64) int {
	w := 0
	for _, r := range resid {
		w = max(w, 64-bits.LeadingZeros64(r))
	}
	if w > 57 {
		return 64
	}
	return w
}

// appendPacked appends the width byte, then the residuals bit-packed
// little-endian (width 64 stores raw 8-byte words).
func appendPacked(dst []byte, resid []uint64, width int) []byte {
	dst = append(dst, byte(width))
	if width == 64 {
		for _, r := range resid {
			dst = binary.LittleEndian.AppendUint64(dst, r)
		}
		return dst
	}
	acc, accBits := uint64(0), 0
	for _, r := range resid {
		acc |= r << uint(accBits) // accBits <= 7 here, width <= 57: no overflow
		accBits += width
		for accBits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			accBits -= 8
		}
	}
	if accBits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// appendVarints appends the codecDelta payload for the deltas.
func appendVarints(dst []byte, deltas []uint64) []byte {
	for _, d := range deltas {
		dst = appendPV(dst, d)
	}
	return dst
}

// The deltas* helpers turn a column into its first value (as a raw
// 8-byte image) plus the zigzag delta stream of the REST — the shared
// input of both non-const codecs. Keeping the first value out of the
// stream matters: a block's opening seq or timestamp is a huge "delta
// from zero" that would otherwise widen every packed value in the
// block.

func deltasU64(scratch []uint64, vals []uint64) (uint64, []uint64) {
	scratch = scratch[:0]
	prev := vals[0]
	for _, v := range vals[1:] {
		scratch = append(scratch, zigzag(int64(v-prev)))
		prev = v
	}
	return vals[0], scratch
}

func deltasF64(scratch []uint64, vals []float64) (uint64, []uint64) {
	scratch = scratch[:0]
	prev := math.Float64bits(vals[0])
	for _, v := range vals[1:] {
		b := math.Float64bits(v)
		scratch = append(scratch, zigzag(int64(b-prev)))
		prev = b
	}
	return math.Float64bits(vals[0]), scratch
}

func deltasI32(scratch []uint64, vals []int32) (uint64, []uint64) {
	scratch = scratch[:0]
	prev := int64(vals[0])
	for _, v := range vals[1:] {
		scratch = append(scratch, zigzag(int64(v)-prev))
		prev = int64(v)
	}
	return uint64(uint32(vals[0])), scratch
}

func deltasU16(scratch []uint64, vals []uint16) (uint64, []uint64) {
	scratch = scratch[:0]
	prev := int64(vals[0])
	for _, v := range vals[1:] {
		scratch = append(scratch, zigzag(int64(v)-prev))
		prev = int64(v)
	}
	return uint64(vals[0]), scratch
}

// The residuals* helpers turn a column into codecPacked's input: the
// minimum value's 8-byte image plus every row's distance from it.
// Residuals are unsigned by construction, so no zigzag step is needed,
// and — unlike deltas — reconstruction has no serial dependency.

func residualsU64(scratch []uint64, vals []uint64) (uint64, []uint64) {
	scratch = scratch[:0]
	base := vals[0]
	for _, v := range vals {
		base = min(base, v)
	}
	for _, v := range vals {
		scratch = append(scratch, v-base)
	}
	return base, scratch
}

func residualsF64(scratch []uint64, vals []float64) (uint64, []uint64) {
	scratch = scratch[:0]
	base := math.Float64bits(vals[0])
	for _, v := range vals {
		base = min(base, math.Float64bits(v))
	}
	for _, v := range vals {
		scratch = append(scratch, math.Float64bits(v)-base)
	}
	return base, scratch
}

func residualsI32(scratch []uint64, vals []int32) (uint64, []uint64) {
	scratch = scratch[:0]
	base := vals[0]
	for _, v := range vals {
		base = min(base, v)
	}
	for _, v := range vals {
		scratch = append(scratch, uint64(int64(v)-int64(base)))
	}
	return uint64(uint32(base)), scratch
}

func residualsU16(scratch []uint64, vals []uint16) (uint64, []uint64) {
	scratch = scratch[:0]
	base := vals[0]
	for _, v := range vals {
		base = min(base, v)
	}
	for _, v := range vals {
		scratch = append(scratch, uint64(v-base))
	}
	return uint64(base), scratch
}

// dictBuildF64 collects the sorted distinct bit images of vals into
// scratch, abandoning as soon as the count exceeds dictMaxEntries (for
// high-cardinality columns that happens within the first rows, so the
// probe costs almost nothing). The returned slice reuses scratch's
// backing array; ok reports whether the column fit.
func dictBuildF64(scratch []uint64, vals []float64) (dict []uint64, ok bool) {
	d := scratch[:0]
	for _, v := range vals {
		img := math.Float64bits(v)
		lo, hi := 0, len(d)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if d[mid] < img {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(d) && d[lo] == img {
			continue
		}
		if len(d) >= dictMaxEntries {
			return d, false
		}
		d = append(d, 0)
		copy(d[lo+1:], d[lo:])
		d[lo] = img
	}
	return d, true
}

// dictIndexesF64 maps every row to its position in the sorted dict.
func dictIndexesF64(scratch []uint64, dict []uint64, vals []float64) []uint64 {
	idx := scratch[:0]
	for _, v := range vals {
		img := math.Float64bits(v)
		lo, hi := 0, len(dict)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if dict[mid] < img {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		idx = append(idx, uint64(lo))
	}
	return idx
}

// appendDict appends the dictionary frame: entry count, sorted images,
// then the indices through the shared bit-packer.
func appendDict(dst []byte, dict []uint64, idx []uint64) []byte {
	dst = append(dst, byte(len(dict)))
	for _, img := range dict {
		dst = binary.LittleEndian.AppendUint64(dst, img)
	}
	return appendPacked(dst, idx, dictWidth(len(dict)))
}
