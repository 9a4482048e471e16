package tracelake

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
	"sync/atomic"

	"optsync/internal/probe"
)

// Lake is an open container: the parsed footer index over the
// container's bytes, which are either mapped from a file or held in
// memory. Blocks decode straight out of those bytes, and only when a
// query's pruning admits them; each block's checksum is verified on
// first touch and remembered, since the bytes cannot change under the
// lake. A Lake is safe for concurrent readers: it is immutable after
// Open but for the checksum marks and a mutex-guarded free list of
// decode buffers; Scan calls each need their own cursor state and may
// run concurrently.
type Lake struct {
	data   []byte
	unmap  func() error // set when data is a mapping this lake owns
	blocks []blockMeta
	total  uint64
	// verified[i] records that block i's checksum has been validated,
	// so repeated scans checksum each block once, not once per scan.
	verified []atomic.Bool
	// free recycles finished scans' decode buffers into the next. A plain
	// list, not a sync.Pool: at most the readers that were in use at once.
	freeMu sync.Mutex
	free   []*blockReader
}

// getReader hands out a reader with room for rows rows: the smallest
// free one that has it, else the smallest free one grown to exactly rows,
// else a new one. Streams ask for their largest admitted block, so a
// reader is sized once for a scan and never regrown while decoding, and
// the free list never holds more readers than the most one scan took.
func (l *Lake) getReader(rows int) *blockReader {
	l.freeMu.Lock()
	pick, best := -1, 0
	for i, br := range l.free {
		// Every reader that fits ranks before every one that does not;
		// within each group the smaller ranks first.
		rank := cap(br.rows.Seq)
		if rank < rows {
			rank += maxBlockRows + 1
		}
		if pick < 0 || rank < best {
			pick, best = i, rank
		}
	}
	var br *blockReader
	if pick < 0 {
		br = &blockReader{}
	} else {
		br = l.free[pick]
		last := len(l.free) - 1
		l.free[pick], l.free = l.free[last], l.free[:last]
	}
	l.freeMu.Unlock()
	br.reserve(rows)
	return br
}

// putReader returns readers whose buffers and Rows nothing uses any more.
func (l *Lake) putReader(brs ...*blockReader) {
	l.freeMu.Lock()
	l.free = append(l.free, brs...)
	l.freeMu.Unlock()
}

// mapFile maps a file read-only (mmapOpen). A variable so that a test
// can make mapping fail and reach Open's in-memory branch.
var mapFile = mmapOpen

// Open opens a lake file. Where the platform supports it (unix), the
// container is memory-mapped: opening costs O(footer) no matter how
// large the lake is, and blocks decode zero-copy from the mapped pages.
// The mapped file must not be truncated while the lake is open. Where
// mapping is unavailable or fails, the file is read into memory instead.
// Either way the bytes go to OpenBytes.
func Open(path string) (*Lake, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // a mapping outlives the descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	l, err := OpenBytes(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	l.unmap = unmap
	return l, nil
}

// OpenBytes opens a lake held in memory, with zero-copy block access:
// scans decode straight out of data. data must not be mutated while the
// lake is in use. It validates the header magic, the trailer, and the
// footer checksum before trusting any of the index; every corruption
// error names the byte offset it was detected at. The container layout
// guarantees the decoder's padding invariant for free — every block is
// followed by at least the footer and trailer (>= 36 bytes), so the
// 8-byte loads past a column's end stay inside data.
func OpenBytes(data []byte) (*Lake, error) {
	size := int64(len(data))
	if size < int64(len(Magic))+trailerSize {
		return nil, fmt.Errorf("tracelake: file is %d bytes, smaller than an empty container (%d)",
			size, len(Magic)+trailerSize)
	}
	if head := [8]byte(data); head != Magic {
		return nil, fmt.Errorf("tracelake: bad magic %q at offset 0 (want %q): not a lake container",
			head[:], Magic[:])
	}
	trailer := data[size-trailerSize:]
	if [8]byte(trailer[8:]) != endMagic {
		return nil, fmt.Errorf("tracelake: bad end magic %q at offset %d (want %q): container truncated or not finalized",
			trailer[8:], size-8, endMagic[:])
	}
	footerLen := binary.LittleEndian.Uint64(trailer[:8])
	if footerLen < 4+16 || footerLen > uint64(size-trailerSize-int64(len(Magic))) {
		return nil, fmt.Errorf("tracelake: trailer at offset %d claims footer length %d, impossible for a %d-byte file",
			size-trailerSize, footerLen, size)
	}
	footerOff := size - trailerSize - int64(footerLen)

	footer := data[footerOff : size-trailerSize]
	wantCRC := binary.LittleEndian.Uint32(footer[:4])
	if got := crc32.Checksum(footer[4:], castagnoli); got != wantCRC {
		return nil, fmt.Errorf("tracelake: footer checksum mismatch at offset %d (stored %08x, computed %08x)",
			footerOff, wantCRC, got)
	}
	body := footer[4:]
	nBlocks := binary.LittleEndian.Uint64(body[:8])
	total := binary.LittleEndian.Uint64(body[8:16])
	if nBlocks > uint64(len(body))/metaEncSize || uint64(len(body)-16) != nBlocks*metaEncSize {
		return nil, fmt.Errorf("tracelake: footer at offset %d indexes %d blocks but carries %d bytes of entries (want %d)",
			footerOff, nBlocks, len(body)-16, nBlocks*metaEncSize)
	}

	l := &Lake{data: data, total: total, blocks: make([]blockMeta, 0, nBlocks),
		verified: make([]atomic.Bool, nBlocks)}
	var sum uint64
	for i := uint64(0); i < nBlocks; i++ {
		m := decodeMeta(body[16+i*metaEncSize:])
		if int(m.typ) <= 0 || int(m.typ) >= probe.NumTypes {
			return nil, fmt.Errorf("tracelake: footer entry %d has invalid event type %d", i, m.typ)
		}
		if m.count == 0 || m.count > maxBlockRows {
			return nil, fmt.Errorf("tracelake: footer entry %d (block at offset %d) has implausible row count %d",
				i, m.offset, m.count)
		}
		if m.offset < uint64(len(Magic)) || m.length < blockHeaderSize || m.length > uint64(footerOff) || m.offset > uint64(footerOff)-m.length {
			return nil, fmt.Errorf("tracelake: footer entry %d places block at [%d, %d), outside the data region [%d, %d)",
				i, m.offset, m.offset+m.length, len(Magic), footerOff)
		}
		sum += uint64(m.count)
		l.blocks = append(l.blocks, m)
	}
	if sum != total {
		return nil, fmt.Errorf("tracelake: footer at offset %d claims %d events but its blocks sum to %d",
			footerOff, total, sum)
	}
	return l, nil
}

// Close releases the file mapping when Open made one; for a lake read
// into memory or opened with OpenBytes it does nothing.
func (l *Lake) Close() error {
	if l.unmap != nil {
		return l.unmap()
	}
	return nil
}

// Mapped reports whether the lake decodes from a memory mapping Open
// established (false for OpenBytes images and for files Open read into
// memory).
func (l *Lake) Mapped() bool { return l.unmap != nil }

// Events returns the total event count recorded in the footer.
func (l *Lake) Events() uint64 { return l.total }

// BlockCount returns the number of column blocks in the container.
func (l *Lake) BlockCount() int { return len(l.blocks) }

// Rows is one decoded column block: the struct-of-arrays view of up to
// blockRows events of a single type — Seq beside the probe.Batch columns
// a Folder folds. All slices have equal length; Seq is strictly
// increasing (the events' positions in the recorded stream). The slices
// alias the decoder's reusable buffers — they are valid until the next
// block is decoded into the same cursor.
type Rows struct {
	Seq []uint64
	probe.Batch
}

// Len returns the row count.
func (r *Rows) Len() int { return len(r.Seq) }

// Event materializes row i as a probe event.
//
//syncsim:hotpath
func (r *Rows) Event(i int) probe.Event {
	return probe.Event{
		Type: r.Type, Kind: r.Kind[i],
		From: r.From[i], To: r.To[i], Round: r.Round[i],
		T: r.T[i], Value: r.Value[i], Aux: r.Aux[i],
	}
}

// batch views rows [i, j) as a probe batch: sub-slices, no copy.
func (r *Rows) batch(i, j int) probe.Batch {
	return probe.Batch{Type: r.Type, T: r.T[i:j], From: r.From[i:j], To: r.To[i:j],
		Kind: r.Kind[i:j], Round: r.Round[i:j], Value: r.Value[i:j], Aux: r.Aux[i:j]}
}

// blockReader decodes blocks into reusable buffers: one per cursor,
// sized by getReader for the largest block its stream will decode, so a
// scan allocates no row buffer after it has drawn its readers.
type blockReader struct {
	rows Rows
	// constImage/constN cache the last const fill per column: when
	// consecutive blocks repeat the same image (kind, value, aux almost
	// always do), the buffer's first constN[ci] entries already hold it
	// and the fill is skipped.
	constImage [numCols]uint64
	constN     [numCols]int
}

// read fetches and decodes block mi. The returned Rows aliases the
// reader's buffers.
func (b *blockReader) read(l *Lake, mi int) (*Rows, error) {
	m := &l.blocks[mi]
	blockLen := int(m.length)
	// The block plus its guaranteed >= 8 trailing bytes (footer/trailer
	// at minimum), viewed in place.
	buf := l.data[m.offset : int(m.offset)+blockLen+8]
	payload := buf[4:blockLen]
	if !l.verified[mi].Load() {
		wantCRC := binary.LittleEndian.Uint32(buf[:4])
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			return nil, fmt.Errorf("tracelake: block at offset %d fails its checksum (stored %08x, computed %08x)",
				m.offset, wantCRC, got)
		}
		l.verified[mi].Store(true)
	}
	if probe.Type(payload[0]) != m.typ || binary.LittleEndian.Uint32(payload[1:]) != m.count {
		return nil, fmt.Errorf("tracelake: block at offset %d is (type %d, count %d) but the footer indexed (type %d, count %d)",
			m.offset, payload[0], binary.LittleEndian.Uint32(payload[1:]), m.typ, m.count)
	}
	n := int(m.count)
	b.reserve(n) // a no-op for a reader sized by its stream
	r := &b.rows
	r.Type = m.typ
	r.Seq, r.T, r.Value, r.Aux = r.Seq[:n], r.T[:n], r.Value[:n], r.Aux[:n]
	r.From, r.To, r.Round, r.Kind = r.From[:n], r.To[:n], r.Round[:n], r.Kind[:n]

	// cols spans from the end of the block header through the 8 zeroed
	// pad bytes past the payload, so the varint decoder's unconditional
	// 8-byte loads stay inside buf for any in-payload offset; the
	// per-column declared lengths (validated below) keep decode offsets
	// in-payload.
	cols := buf[blockHeaderSize:]
	off := 0
	limit := blockLen - blockHeaderSize // declared column bytes
	for ci := 0; ci < numCols; ci++ {
		if off+5 > limit {
			return nil, fmt.Errorf("tracelake: block at offset %d: column %d header overruns the block", m.offset, ci)
		}
		codec := cols[off]
		clen := int(binary.LittleEndian.Uint32(cols[off+1:]))
		off += 5
		if clen < 0 || off+clen > limit {
			return nil, fmt.Errorf("tracelake: block at offset %d: column %d claims %d bytes, overrunning the block",
				m.offset, ci, clen)
		}
		if err := b.decodeCol(r, ci, codec, cols[off:], clen); err != nil {
			return nil, fmt.Errorf("tracelake: block at offset %d: column %d: %w", m.offset, ci, err)
		}
		off += clen
	}
	if off != limit {
		return nil, fmt.Errorf("tracelake: block at offset %d: columns cover %d of %d payload bytes", m.offset, off, limit)
	}
	return r, nil
}

// reserve gives every column capacity for n rows. A reader short in any
// column (the Rows a scan hands out are the caller's to reslice) is
// reallocated whole, and the const fills it cached go with its buffers.
func (b *blockReader) reserve(n int) {
	r := &b.rows
	if min(cap(r.Seq), cap(r.T), cap(r.From), cap(r.To), cap(r.Kind), cap(r.Round), cap(r.Value), cap(r.Aux)) < n {
		r.alloc(n)
		b.constN = [numCols]int{}
	}
}

// alloc gives every column n rows of fresh storage.
func (r *Rows) alloc(n int) {
	r.Seq, r.T, r.Value, r.Aux = make([]uint64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	r.From, r.To, r.Round, r.Kind = make([]int32, n), make([]int32, n), make([]int32, n), make([]uint16, n)
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

// decodeCol decodes one column (ci indexes seq,t,from,to,kind,round,
// value,aux) from data, whose declared length is clen; data extends past
// clen into the padded tail. A const column whose image the buffer
// already holds is not filled again.
func (b *blockReader) decodeCol(r *Rows, ci int, codec byte, data []byte, clen int) error {
	switch codec {
	case codecConst:
		if clen != 8 {
			return fmt.Errorf("const column is %d bytes, want 8", clen)
		}
		image := binary.LittleEndian.Uint64(data)
		n := len(r.Seq)
		if b.constN[ci] >= n && b.constImage[ci] == image {
			return nil // buffer already holds this image
		}
		b.constImage[ci], b.constN[ci] = image, n
	case codecDelta, codecPacked, codecDict:
		b.constN[ci] = 0
	default:
		return fmt.Errorf("unknown codec 0x%02x", codec)
	}
	switch ci {
	case 0:
		return decodeInts(r.Seq, codec, data, clen)
	case 1:
		return decodeFloats(r.T, codec, data, clen)
	case 2:
		return decodeInts(r.From, codec, data, clen)
	case 3:
		return decodeInts(r.To, codec, data, clen)
	case 4:
		return decodeInts(r.Kind, codec, data, clen)
	case 5:
		return decodeInts(r.Round, codec, data, clen)
	case 6:
		return decodeFloats(r.Value, codec, data, clen)
	}
	return decodeFloats(r.Aux, codec, data, clen)
}

// decodeInts decodes an integer column under a known codec.
func decodeInts[T intCol](dst []T, codec byte, data []byte, clen int) error {
	switch codec {
	case codecConst:
		fill(dst, T(binary.LittleEndian.Uint64(data)))
		return nil
	case codecDelta:
		return checkUsed(decodeDelta(dst, data, clen), clen)
	case codecPacked:
		return checkFrame(decodePacked(dst, data, clen), "packed", clen)
	}
	return fmt.Errorf("dictionary codec on non-float column")
}

// decodeFloats decodes a float column as the u64 column of its bit
// images; only a float column may be a dictionary.
func decodeFloats(dst []float64, codec byte, data []byte, clen int) error {
	if codec == codecDict {
		return checkFrame(decodeDict(images(dst), data, clen), "dictionary", clen)
	}
	return decodeInts(images(dst), codec, data, clen)
}

// checkUsed and checkFrame turn a decoder's verdict into decodeCol's
// error.
func checkUsed(used, clen int) error {
	if used != clen {
		return fmt.Errorf("delta column decodes to %d of its declared %d bytes", used, clen)
	}
	return nil
}

func checkFrame(ok bool, frame string, clen int) error {
	if !ok {
		return fmt.Errorf("%s column frame is inconsistent with its declared %d bytes", frame, clen)
	}
	return nil
}
