// Package tracelake is the columnar trace container and query engine of
// the observation layer: the at-rest form of the probe event stream.
//
// The trace format of internal/probe (JSONL) is row-oriented and
// write-only: answering "skew samples of node 17 between t=2.5 and t=9"
// means decoding every line of the stream. A lake stores the same events
// partitioned into per-type row groups of struct-of-arrays column
// blocks, with a footer index carrying
// per-block type, count, and min/max bounds for time, node ids, and
// rounds — so a reader seeks straight to the blocks a query can match
// and never touches the rest (ndn-dpdk's packet-oriented SoA layout is
// the design reference). Columns are delta-encoded, then either
// bit-packed at a fixed width or prefix-varint coded, whichever is
// smaller (see below); no general-purpose compressor is used — the
// standard library has no zstd, and flate on the scan path would cost
// an order of magnitude in decode speed for ~2x the density the delta
// codecs already provide on this data.
//
// # Container layout (version 1)
//
//	offset 0           magic "OSLAKE1\n" (8 bytes)
//	...                blocks, back to back (layout below)
//	...                footer: crc32c + index of every block
//	size-16            trailer: footer length (8 bytes LE) + end magic
//	                   "OSLAKEX1" (8 bytes)
//
// A reader opens the trailer, checksums and parses the footer, and then
// has random access to every block without scanning the file. A writer
// only ever appends, one Write per block, so a live simulation can stream
// into a lake with one file handle.
//
// Each block holds up to blockRows events of ONE event type, as eight
// columns (seq, t, from, to, kind, round, value, aux) encoded
// independently:
//
//	u32    crc32c of the payload below
//	u8     event type
//	u32    row count
//	8 x    u8 codec, u32 encoded length, then the column bytes
//
// The seq column is the event's position in the original stream: the
// partition by type destroys global order, and collectors (P² quantile
// estimators in particular) are order-sensitive, so replay merges blocks
// back by seq to reproduce the recorded stream exactly — including
// interleaved multi-run batch traces, whose timestamps are not monotone.
//
// # Column codecs
//
// codecConst: all rows carry one value; the payload is its 8-byte image.
//
// codecPacked: frame-of-reference — the block's minimum value as a raw
// 8-byte image, a width byte, then every row's residual (value minus
// minimum, on the 64-bit integer image: float columns use their
// IEEE-754 bit patterns, which round-trips exactly) at that fixed bit
// width; width 64 stores raw 8-byte words. Decoding is one 8-byte load
// per 8, 4, 2 or 1 rows (as many as the width lets one load hold) plus a
// shift, a mask and an add per row, at a constant bit stride — no
// loop-carried dependency, neither in the address chain nor through a
// prefix sum. One worker decodes the benchmark's lake-query corpus at
// about 1.4 ns a column value: compute, not memory bandwidth, bounds a
// full scan.
//
// codecDelta: the column's first value as a raw 8-byte image, then the
// remaining rows as prefix-varint zigzag deltas from their predecessor
// (again on the integer image; exact for floats). The varint's encoded
// byte count sits in the low nibble of its first byte, so the decoder
// reads one length-free 8-byte load per value instead of chasing
// continuation bits. Denser than packed when magnitudes are skewed — a
// single outlier row would widen every packed residual.
//
// codecDict: for float columns whose rows repeat a small set of values
// (low-cardinality aux payloads — drop reason codes, per-kind
// constants): an entry count, the distinct 8-byte bit images sorted
// ascending, then every row as a bit-packed index into that table. A
// block of 4096 rows drawing from 16 values costs ~4 bits/row where
// frame-of-reference packing of unrelated float images would need
// 64. The writer measures the density (distinct-image count, abandoning
// past dictMaxEntries) and emits dict only when it beats both delta
// codecs; the codec byte gates the reader exactly like the others, so
// the container version is unchanged and round-trips stay bit-exact.
//
// The writer emits packed unless the varint form is more than twice as
// dense (packed decodes several times faster; it also wins ties), so the
// choice is a per-column, per-block decision the reader discovers from
// the codec byte.
//
// # Writing
//
// Writer.OnEvent, on the simulation's goroutine, only stores an event
// into its type's column buffer; full buffers are encoded and written,
// first in first out, by the one goroutine this package starts on the
// write side. The same events therefore give the same file at any
// GOMAXPROCS (which is why detrand's goroutine rule is waived for that
// go statement), one Write per block. See Writer for the hand-off, the
// error contract and what Flush guarantees.
package tracelake

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"optsync/internal/probe"
)

// Magic identifies a lake container (format version 1). probe.LakeMagic
// is the same sequence: ReadTrace uses it to reject lakes with a pointer
// here instead of misparsing them as JSONL.
var Magic = [8]byte{'O', 'S', 'L', 'A', 'K', 'E', '1', '\n'}

// endMagic closes the container; the 8 bytes before it are the footer
// length. Its presence is what distinguishes "truncated" from "garbage".
var endMagic = [8]byte{'O', 'S', 'L', 'A', 'K', 'E', 'X', '1'}

const (
	// blockRows is the row-group size: the pruning granularity and the
	// unit of decode. 4096 rows keeps a 1%-selective time query skipping
	// >95% of a large trace while the per-block footer entry stays ~1% of
	// the block's own size.
	blockRows = 4096

	// maxBlockRows bounds the row count a reader will believe. A const
	// column encodes any row count in 8 bytes, so the count cannot be
	// sanity-checked against the payload size alone; this cap keeps a
	// corrupt footer from asking for a multi-gigabyte decode buffer.
	maxBlockRows = 1 << 20

	// trailerSize is the fixed tail: footer length + end magic.
	trailerSize = 16

	// numCols is the per-block column count: seq, t, from, to, kind,
	// round, value, aux.
	numCols = 8

	// blockHeaderSize is the fixed prefix of a block: crc + type + count.
	blockHeaderSize = 4 + 1 + 4
)

// Column codecs. The writer emits codecPacked unless codecDelta is more
// than twice as dense, sizing the varint stream only where that could be
// (see colEncoder.encode). Float columns additionally compete against
// codecDict (see below), which wins on low-cardinality payloads —
// repeated aux values in particular.
const (
	codecConst  = 0x01 // all rows carry one value: the 8-byte image
	codecDelta  = 0x02 // prefix-varint zigzag deltas
	codecPacked = 0x03 // fixed-width bit-packed zigzag deltas
	codecDict   = 0x04 // sorted image dictionary + bit-packed indices
)

// dictMaxEntries bounds the dictionary codec: past 64 distinct images
// the indices need 7+ bits and the 8-byte-per-entry table starts eating
// the savings, while the writer's per-row binary search stops being
// negligible. A column that exceeds it falls back to delta/packed.
const dictMaxEntries = 64

// zigzag folds signed deltas into unsigned varint space.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// appendPV appends v as a prefix varint: low nibble of the first byte is
// the count of following bytes (0..8), high nibble the low 4 bits of v,
// following bytes the rest little-endian. Values below 16 cost one byte.
func appendPV(dst []byte, v uint64) []byte {
	w := v >> 4
	n := 0
	for x := w; x != 0; x >>= 8 {
		n++
	}
	var scratch [9]byte
	scratch[0] = byte(n) | byte(v<<4)
	binary.LittleEndian.PutUint64(scratch[1:], w)
	return append(dst, scratch[:1+n]...)
}

// pvMask[n] keeps the low 8*n bits: the mask applied to the 8-byte load
// behind a prefix varint's first byte. A table lookup instead of a
// computed shift matters on the scan path — Go guards variable shifts
// whose amount might reach 64, and that guard is per decoded value.
// Entries 9..15 (impossible lengths, reachable only through corrupt
// data) saturate; the per-loop offset guards keep such input safe.
var pvMask = [16]uint64{
	0x00, 0xff, 0xffff, 0xffffff, 0xffffffff,
	0xff_ffffffff, 0xffff_ffffffff, 0xffffff_ffffffff, 0xffffffff_ffffffff,
	^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
}

// --- column encoders (writer side) ---
//
// Every column type maps, order preserved, onto a uint64 image — u64 as
// is, f64 its IEEE-754 bit pattern, u16 widened, i32 sign-extended and
// shifted by i32Bias onto [0, 2^32) — and one encoder works on images:
// min == max is the const test, the bit length of max-min is the packed
// width, deltas and residuals are differences of images. Float order is
// therefore the unsigned order of bit patterns (negatives above
// positives, -0 != +0, a NaN is just an image). The format stores a
// column's base or first value as uint64(uint32(v)) for i32; unbias
// undoes the shift there.
//
// A float column is thus the u64 column of its images (see images), on
// both sides: the writer encodes it and the reader decodes it through
// the integer code, and only the dictionary codec is float-only.

const i32Bias = 1 << 31

// images views a float column as its IEEE-754 bit images, in place:
// images(f)[i] is math.Float64bits(f[i]), and storing an image through the
// view stores math.Float64frombits of it. This is safe: float64 and uint64
// have one size and alignment on every Go port, and every bit pattern is
// a value of both, so the view reinterprets the memory exactly as
// Float64bits does.
func images(f []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(f))), len(f))
}

func unbias(image, bias uint64) uint64 {
	if bias != 0 {
		return uint64(uint32(image - bias))
	}
	return image
}

// intCol is the integer column types: u64 (seq), i32 (from, to, round)
// and u16 (kind).
type intCol interface{ uint64 | int32 | uint16 }

// colEncoder is the scratch of one column encode at a time.
type colEncoder struct {
	img  []uint64 // the image of the column being encoded
	dict []uint64
	idx  []uint64
}

// image returns the n-row image scratch; no column outgrows a block.
func (e *colEncoder) image(n int) []uint64 {
	if e.img == nil {
		e.img = make([]uint64, blockRows)
	}
	return e.img[:n]
}

// ints takes the image and its bounds in one pass, appends the column's
// frame, and returns the bounds (as images) for the block's footer entry.
// An integer's image is uint64(int64(v)) + bias, with bias i32Bias for
// int32 columns and 0 otherwise. A float column comes in as its images
// (ints(e, dst, images(vals), 0, true)); float admits the dictionary.
func ints[T intCol](e *colEncoder, dst []byte, vals []T, bias uint64, float bool) (_ []byte, lo, hi uint64) {
	img := e.image(len(vals))
	lo, hi = ^uint64(0), 0
	for i, v := range vals {
		b := uint64(int64(v)) + bias
		img[i] = b
		lo, hi = min(lo, b), max(hi, b)
	}
	return e.encode(dst, img, lo, hi, bias, float), lo, hi
}

// encode frames one column (codec + length + bytes) from its image and
// the image's bounds. codecConst when every row carries one value (kind,
// value, and aux usually do; skew samples' from/to are all -1);
// otherwise frame-of-reference packing (base image + fixed-width
// residuals — the fast-decode path) unless first value + prefix-varint
// zigzag deltas are more than twice as dense (a heavily outlier-skewed
// column), or, for float columns with few distinct values (aux payloads
// above all), a dictionary strictly smaller than both.
func (e *colEncoder) encode(dst []byte, img []uint64, lo, hi, bias uint64, float bool) []byte {
	if lo == hi {
		dst = appendColHeader(dst, codecConst, 8)
		return binary.LittleEndian.AppendUint64(dst, unbias(lo, bias))
	}
	n := len(img)
	// Past 57 bits a value could straddle more than one 64-bit load: store
	// raw 8-byte words.
	width := bits.Len64(hi - lo)
	if width > 57 {
		width = 64
	}
	psize := 8 + packedSize(n, width)

	// The varint size is a pass of its own, taken only where it can change
	// the choice. A varint is at least one byte, so packed at up to 16 bits
	// wins its psize <= 2*vsize rule unmeasured; a dictionary has to beat
	// packed before varint matters to it. High-cardinality columns abandon
	// the dictionary within their first dictMaxEntries+1 distinct rows.
	measure := psize > 2*(8+n-1)
	dsize := 0
	if float {
		var ok bool
		if e.dict, ok = dictBuild(e.dict, img); ok {
			if d := dictSize(n, len(e.dict)); d < psize {
				dsize, measure = d, true
			}
		}
	}
	vsize := 8
	if measure {
		prev := img[0]
		for _, v := range img[1:] {
			vsize += pvLen(zigzag(int64(v - prev)))
			prev = v
		}
	}

	switch {
	case dsize != 0 && dsize < vsize:
		e.idx = dictIndexes(e.idx, e.dict, img)
		dst = appendColHeader(dst, codecDict, dsize)
		dst = append(dst, byte(len(e.dict)))
		for _, entry := range e.dict {
			dst = binary.LittleEndian.AppendUint64(dst, entry)
		}
		return packImages(dst, e.idx, 0, dictWidth(len(e.dict)))
	case !measure || psize <= 2*vsize:
		dst = appendColHeader(dst, codecPacked, psize)
		dst = binary.LittleEndian.AppendUint64(dst, unbias(lo, bias))
		return packImages(dst, img, lo, width)
	}
	// Keeping the first value out of the delta stream matters: a block's
	// opening seq or timestamp is a huge "delta from zero".
	dst = appendColHeader(dst, codecDelta, vsize)
	dst = binary.LittleEndian.AppendUint64(dst, unbias(img[0], bias))
	dst = slices.Grow(dst, vsize-8)
	prev := img[0]
	for _, v := range img[1:] {
		dst = appendPV(dst, zigzag(int64(v-prev)))
		prev = v
	}
	return dst
}

func appendColHeader(dst []byte, codec byte, n int) []byte {
	dst = append(dst, codec)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// pvLen is the encoded size of v as a prefix varint.
func pvLen(v uint64) int { return 1 + (bits.Len64(v>>4)+7)/8 }

// packedSize is the width byte plus n residuals at width w.
func packedSize(n, w int) int { return 1 + (n*w+7)/8 }

// packImages appends the width byte, then every image's distance from
// base bit-packed little-endian (width 64 stores raw 8-byte words). The
// destination is grown once and filled a 64-bit word at a time.
func packImages(dst []byte, img []uint64, base uint64, width int) []byte {
	dst = append(dst, byte(width))
	at, size := len(dst), packedSize(len(img), width)-1
	dst = slices.Grow(dst, size)[:at+size]
	out := dst[at:]
	if width == 64 {
		for i, v := range img {
			binary.LittleEndian.PutUint64(out[8*i:], v-base)
		}
		return dst
	}
	acc, nbits, pos := uint64(0), 0, 0
	for _, v := range img {
		r := v - base
		acc |= r << (uint(nbits) & 63)
		nbits += width
		if nbits >= 64 {
			binary.LittleEndian.PutUint64(out[pos:], acc)
			pos += 8
			nbits -= 64
			acc = r >> (uint(width-nbits) & 63) // the bits of r the word had no room for
		}
	}
	for ; nbits > 0; nbits -= 8 {
		out[pos] = byte(acc)
		acc >>= 8
		pos++
	}
	return dst
}

// --- column decoders (reader side) ---
//
// Each decoder walks one contiguous buffer in a tight loop; the scan
// path's throughput is essentially the sum of these loops. src is the
// column's declared bytes plus at least 8 padding bytes (see the block
// reader), so a varint's 8-byte load stays in bounds as long as its
// offset stays inside the declared region — which the per-iteration
// guard enforces. Decoders return the consumed byte count, or -1 when a
// corrupt varint walks outside the declared region: validation fails,
// nothing faults.
//
// Every column shares one generic decoder per codec: the arithmetic runs
// on the uint64 image and each row stores T(image). An i32 or u16 frame
// holds the value's own low bits (the writer unbiases i32), and the image
// arithmetic is modulo 2^64, so the truncation is the row's value. A
// float column decodes through the images view, as seq does: storing an
// image through the view is storing the float, so no row is converted.

// Both non-const codec frames open with the column's first value as a
// raw 8-byte image; the encoded deltas cover rows 1..n-1 only.
//
// The varint loop below decodes a prefix varint and inverts the zigzag
// inline, and re-slices src to exactly declared+8 bytes up front: the
// guard `off >= len(src)-8` then doubles as the corruption check AND the
// fact the bounds-check eliminator needs to drop the per-value slice
// checks on the unconditional 8-byte load (which is what makes the decode
// branch-free on length). Callers guarantee at least 8 padding bytes past
// declared.

//syncsim:hotpath
func decodeDelta[T intCol](dst []T, src []byte, declared int) int {
	if declared < 8 || len(dst) == 0 {
		return -1
	}
	src = src[:declared+8]
	prev := binary.LittleEndian.Uint64(src)
	dst[0] = T(prev)
	off := 8
	for i := 1; i < len(dst); i++ {
		if off >= len(src)-8 {
			return -1
		}
		b0 := src[off]
		w := binary.LittleEndian.Uint64(src[off+1:]) & pvMask[b0&0x0f]
		u := uint64(b0>>4) | w<<4
		prev += uint64(int64(u>>1) ^ -int64(u&1))
		dst[i] = T(prev)
		off += int(b0&0x0f) + 1
	}
	return off
}

// The codecPacked decoders read residuals with 8-byte loads at bit
// offsets that advance by a CONSTANT stride, and add the base: no
// loop-carried dependency, neither in the address chain nor through a
// prefix sum. checkPacked validates the frame once; after it returns a
// non-negative width, every load below stays inside src's declared bytes
// plus the 8-byte pad (widths <= 57 never straddle more than 8 bytes past
// the last packed bit; width 64 is raw 8-byte words).
//
// Narrow widths unpack several rows from one load, as many as fit beside
// the load's bit offset within a byte (up to 7 bits): 8 rows at widths up
// to 7 (8 rows then span whole bytes, so every load is byte-aligned), 4 up
// to 14, 2 up to 28, 1 above. Every load goes through a fixed
// data[j:j+8] window and every variable shift is masked with & 63: the
// compiler then drops both the per-load slice-length reload and the
// oversized-shift guard.
// A block's last rows, past its final whole group, take one load each.

// checkPacked validates a packed frame holding n residuals behind the
// 8-byte base image; clen is the frame length including the image.
func checkPacked(n int, src []byte, clen int) int {
	if clen < 9 {
		return -1
	}
	width := int(src[8])
	if width > 64 || (width > 57 && width < 64) {
		return -1
	}
	if clen != 8+packedSize(n, width) {
		return -1
	}
	return width
}

//syncsim:hotpath
func decodePacked[T intCol](dst []T, src []byte, clen int) bool {
	width := checkPacked(len(dst), src, clen)
	if width < 0 {
		return false
	}
	base := binary.LittleEndian.Uint64(src)
	data := src[9:]
	if width == 64 {
		for i := range dst {
			dst[i] = T(base + binary.LittleEndian.Uint64(data[8*i:8*i+8]))
		}
		return true
	}
	w := uint(width)
	mask := uint64(1)<<(w&63) - 1
	bitpos := uint(0)
	switch {
	case w <= 7:
		for ; len(dst) >= 8; dst, bitpos = dst[8:], bitpos+8*w {
			j := bitpos >> 3 // 8 rows span whole bytes
			lw := binary.LittleEndian.Uint64(data[j : j+8 : j+8])
			d := (*[8]T)(dst)
			d[0] = T(base + lw&mask)
			lw >>= w & 63
			d[1] = T(base + lw&mask)
			lw >>= w & 63
			d[2] = T(base + lw&mask)
			lw >>= w & 63
			d[3] = T(base + lw&mask)
			lw >>= w & 63
			d[4] = T(base + lw&mask)
			lw >>= w & 63
			d[5] = T(base + lw&mask)
			lw >>= w & 63
			d[6] = T(base + lw&mask)
			lw >>= w & 63
			d[7] = T(base + lw&mask)
		}
	case w <= 14:
		for ; len(dst) >= 4; dst, bitpos = dst[4:], bitpos+4*w {
			j := bitpos >> 3
			lw := binary.LittleEndian.Uint64(data[j:j+8:j+8]) >> (bitpos & 7)
			d := (*[4]T)(dst)
			d[0] = T(base + lw&mask)
			lw >>= w & 63
			d[1] = T(base + lw&mask)
			lw >>= w & 63
			d[2] = T(base + lw&mask)
			lw >>= w & 63
			d[3] = T(base + lw&mask)
		}
	case w <= 28:
		for ; len(dst) >= 2; dst, bitpos = dst[2:], bitpos+2*w {
			j := bitpos >> 3
			lw := binary.LittleEndian.Uint64(data[j:j+8:j+8]) >> (bitpos & 7)
			d := (*[2]T)(dst)
			d[0] = T(base + lw&mask)
			lw >>= w & 63
			d[1] = T(base + lw&mask)
		}
	}
	for i := range dst {
		j := bitpos >> 3
		dst[i] = T(base + binary.LittleEndian.Uint64(data[j:j+8:j+8])>>(bitpos&7)&mask)
		bitpos += w
	}
	return true
}

// --- dictionary codec (float columns) ---
//
// Frame layout: u8 entry count (2..255), the distinct bit images sorted
// strictly ascending (8 bytes each), then the per-row indices in
// codecPacked's width-byte + bit-packed framing. The writer only emits
// dictionaries it measured to be smaller than both delta codecs; the
// width is always exactly dictWidth(entries), which the reader enforces
// so a corrupt frame fails validation instead of mis-decoding.

// dictWidth is the packed index width for a dictionary of nd entries.
func dictWidth(nd int) int { return max(1, bits.Len(uint(nd-1))) }

// dictSize is the encoded frame size for n rows over nd entries.
func dictSize(n, nd int) int { return 1 + 8*nd + packedSize(n, dictWidth(nd)) }

// dictBuild collects the sorted distinct images of a column into
// scratch, abandoning as soon as the count exceeds dictMaxEntries (for
// high-cardinality columns that happens within the first rows, so the
// probe costs almost nothing). The returned slice reuses scratch's
// backing array; ok reports whether the column fit.
func dictBuild(scratch []uint64, img []uint64) (dict []uint64, ok bool) {
	d := scratch[:0]
	for _, v := range img {
		lo, found := slices.BinarySearch(d, v)
		if found {
			continue
		}
		if len(d) >= dictMaxEntries {
			return d, false
		}
		d = slices.Insert(d, lo, v)
	}
	return d, true
}

// dictIndexes maps every row to its position in the sorted dict.
func dictIndexes(scratch []uint64, dict []uint64, img []uint64) []uint64 {
	idx := scratch[:0]
	for _, v := range img {
		lo, _ := slices.BinarySearch(dict, v)
		idx = append(idx, uint64(lo))
	}
	return idx
}

// decodeDict decodes a dictionary column into its images. Validation pins the whole
// frame shape — entry count, exact index width, strictly ascending
// images, exact length — so corruption that survives the block CRC
// window (it cannot, but the decoder does not rely on that) fails here
// rather than decoding garbage. The index table is 256 entries because
// width <= 8 keeps the masked index in-bounds unconditionally; unused
// entries stay zero. The index stream unpacks like a packed column (see
// above): 8 indices a load at widths up to 7 — every dictionary the
// writer emits — and one a load at width 8.
//
//syncsim:hotpath
func decodeDict(dst []uint64, src []byte, clen int) bool {
	if clen < 1+2*8+1 {
		return false // minimum: 2 entries + count + width byte
	}
	nd := int(src[0])
	if nd < 2 {
		return false
	}
	width := dictWidth(nd)
	hs := 1 + 8*nd // frame bytes before the packed index stream
	if clen != hs+packedSize(len(dst), width) || int(src[hs]) != width {
		return false
	}
	var table [256]uint64
	prev := binary.LittleEndian.Uint64(src[1:])
	table[0] = prev
	for i := 1; i < nd; i++ {
		img := binary.LittleEndian.Uint64(src[1+8*i:])
		if img <= prev {
			return false // images are sorted and distinct by construction
		}
		table[i], prev = img, img
	}
	// The width is at most 8, so mask keeps every index below 256 and
	// uint8 indexes the table without a bounds check.
	data := src[hs+1:]
	w := uint(width)
	mask := uint64(1)<<(w&63) - 1
	bitpos := uint(0)
	for ; w <= 7 && len(dst) >= 8; dst, bitpos = dst[8:], bitpos+8*w {
		j := bitpos >> 3 // 8 rows span whole bytes
		lw := binary.LittleEndian.Uint64(data[j : j+8 : j+8])
		d := (*[8]uint64)(dst)
		d[0] = table[uint8(lw&mask)]
		lw >>= w & 63
		d[1] = table[uint8(lw&mask)]
		lw >>= w & 63
		d[2] = table[uint8(lw&mask)]
		lw >>= w & 63
		d[3] = table[uint8(lw&mask)]
		lw >>= w & 63
		d[4] = table[uint8(lw&mask)]
		lw >>= w & 63
		d[5] = table[uint8(lw&mask)]
		lw >>= w & 63
		d[6] = table[uint8(lw&mask)]
		lw >>= w & 63
		d[7] = table[uint8(lw&mask)]
	}
	for i := range dst {
		j := bitpos >> 3
		dst[i] = table[uint8(binary.LittleEndian.Uint64(data[j:j+8:j+8])>>(bitpos&7)&mask)]
		bitpos += w
	}
	return true
}

// blockMeta is one footer index entry: everything pruning needs without
// touching the block itself.
type blockMeta struct {
	typ    probe.Type
	count  uint32
	offset uint64 // of the block in the file
	length uint64 // block bytes including header
	seqMin uint64 // seq of the first row (rows are seq-sorted)
	tMin   float64
	tMax   float64
	// nodeMin/nodeMax bound both the from and to columns (-1 sentinels
	// included, which only widen the range).
	nodeMin, nodeMax   int32
	roundMin, roundMax int32
}

// metaEncSize is the fixed on-disk size of one footer entry.
const metaEncSize = 1 + 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 4 + 4

func (m *blockMeta) append(dst []byte) []byte {
	var b [metaEncSize]byte
	b[0] = byte(m.typ)
	binary.LittleEndian.PutUint32(b[1:], m.count)
	binary.LittleEndian.PutUint64(b[5:], m.offset)
	binary.LittleEndian.PutUint64(b[13:], m.length)
	binary.LittleEndian.PutUint64(b[21:], m.seqMin)
	binary.LittleEndian.PutUint64(b[29:], math.Float64bits(m.tMin))
	binary.LittleEndian.PutUint64(b[37:], math.Float64bits(m.tMax))
	binary.LittleEndian.PutUint32(b[45:], uint32(m.nodeMin))
	binary.LittleEndian.PutUint32(b[49:], uint32(m.nodeMax))
	binary.LittleEndian.PutUint32(b[53:], uint32(m.roundMin))
	binary.LittleEndian.PutUint32(b[57:], uint32(m.roundMax))
	return append(dst, b[:]...)
}

func decodeMeta(b []byte) blockMeta {
	return blockMeta{
		typ:      probe.Type(b[0]),
		count:    binary.LittleEndian.Uint32(b[1:]),
		offset:   binary.LittleEndian.Uint64(b[5:]),
		length:   binary.LittleEndian.Uint64(b[13:]),
		seqMin:   binary.LittleEndian.Uint64(b[21:]),
		tMin:     math.Float64frombits(binary.LittleEndian.Uint64(b[29:])),
		tMax:     math.Float64frombits(binary.LittleEndian.Uint64(b[37:])),
		nodeMin:  int32(binary.LittleEndian.Uint32(b[45:])),
		nodeMax:  int32(binary.LittleEndian.Uint32(b[49:])),
		roundMin: int32(binary.LittleEndian.Uint32(b[53:])),
		roundMax: int32(binary.LittleEndian.Uint32(b[57:])),
	}
}
