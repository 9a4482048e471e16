package tracelake

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"optsync/internal/probe"
)

// castagnoli is the CRC-32C table shared by writer and reader; the
// polynomial with hardware support on both amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	// firstRows is a column buffer's first size: most event types of most
	// runs (boots, partition markers, a short run's pulses) never outgrow
	// it. A buffer that does goes straight to blockRows.
	firstRows = 256

	// maxInFlight bounds the full buffers handed to the encoder and not yet
	// recycled; the producer waits at that many. Two serialize producer and
	// encoder whenever message_sent and message_delivered fill together;
	// four do not.
	maxInFlight = 4
)

// colBuf accumulates the pending rows of one event type in a block's
// shape until a block flush. Every column has the same length — the
// buffer's capacity in rows — and n rows are filled.
type colBuf struct {
	n int
	Rows
}

func newColBuf(typ probe.Type, rows int) colBuf {
	var c colBuf
	c.Type = typ
	c.alloc(rows)
	return c
}

// Writer streams probe events into a lake container. It implements
// probe.Probe, so recording a live run is just attaching it to the bus
// (optsync.WithLakeTrace does); ConvertFrom-style callers feed it
// event-by-event the same way. Rows buffer per type; Flush writes the
// pending partial blocks, the footer index, and the trailer — a lake is
// complete only after a nil Flush, and accepts no events afterwards.
//
// OnEvent only stores the event's eight fields. A buffer that reaches
// blockRows is handed, in fill order, to an encoder goroutine that
// encodes, checksums and writes it while OnEvent continues into a
// recycled buffer. Blocks are encoded and written strictly first in,
// first out by at most one goroutine at a time, so offsets, footer order
// and every byte are those of a writer that encoded inline: the file does
// not depend on scheduling or GOMAXPROCS. No goroutine exists before the
// first full block or after the last queued block's write — a Writer
// dropped without Flush pins nothing — and Flush joins the encoder
// before it writes anything itself.
//
// Each block is one Write of ~55 KB (the first carries the magic; footer
// and trailer are one more); wrap a file in a bufio.Writer to coalesce
// them. The destination is written by one goroutine at a time, and by
// none once Flush has returned.
//
// I/O errors are sticky: the first one stops all further writes and
// reaches the caller at the next block hand-off or at Flush, whichever
// comes first; Flush and Err report it, mirroring probe.Writer.
type Writer struct {
	// Producer side: the goroutine calling OnEvent and Flush.
	pend     [probe.NumTypes]colBuf
	seq      uint64
	err      error
	done     bool
	finalErr error

	// The hand-off. queue holds full buffers in fill order, spare the
	// recycled ones; inFlight counts buffers between hand-off and
	// recycling, busy says an encoder goroutine exists, and encErr is that
	// side's first write error on its way to the producer.
	mu       sync.Mutex
	cond     sync.Cond
	queue    []colBuf
	spare    []colBuf
	inFlight int
	busy     bool
	encErr   error
	drainFn  func() // w.drain, bound once: a go statement on it allocates nothing

	// Encoder side: owned by the encoder goroutine while busy, by Flush
	// after the join; mu orders every change of hands.
	enc blockEncoder
}

// NewWriter returns a lake writer emitting to w, strictly sequentially,
// one Write per block.
func NewWriter(w io.Writer) *Writer {
	lw := &Writer{enc: blockEncoder{out: w}}
	lw.cond.L = &lw.mu
	lw.drainFn = lw.drain
	return lw
}

// Events returns the number of events recorded so far.
func (w *Writer) Events() uint64 { return w.seq }

// Err returns the first error the producer has seen, if any: an encoder
// I/O error shows here from the next hand-off or Flush on.
func (w *Writer) Err() error { return w.err }

// OnEvent implements probe.Probe. Events arriving after Flush are an
// error (the footer is already on disk), not a silent drop.
//
//syncsim:hotpath
func (w *Writer) OnEvent(ev probe.Event) {
	ti := int(ev.Type)
	if w.err != nil || w.done || ti <= 0 || ti >= len(w.pend) {
		w.reject(ev)
		return
	}
	c := &w.pend[ti]
	if c.n == len(c.Seq) {
		w.grow(c, ev.Type)
	}
	i := c.n
	c.Seq[i] = w.seq
	c.T[i] = ev.T
	c.From[i] = ev.From
	c.To[i] = ev.To
	c.Kind[i] = ev.Kind
	c.Round[i] = ev.Round
	c.Value[i] = ev.Value
	c.Aux[i] = ev.Aux
	c.n = i + 1
	w.seq++
	if c.n == blockRows {
		w.handOff(c)
	}
}

// reject is OnEvent's cold side: after an error events are dropped, and
// an event that cannot be recorded becomes the error.
//
//go:noinline
func (w *Writer) reject(ev probe.Event) {
	switch {
	case w.err != nil:
	case w.done:
		w.err = fmt.Errorf("tracelake: OnEvent after Flush: the container is finalized")
	default:
		w.err = fmt.Errorf("tracelake: event %d has invalid type %d", w.seq, ev.Type)
	}
}

// grow gives a type its first buffer, or moves the rows of one that
// filled firstRows into a full-size buffer. Buffers have exactly these
// two sizes: append's growth steps would allocate several times the
// final block on the way there.
func (w *Writer) grow(c *colBuf, typ probe.Type) {
	if len(c.Seq) == 0 {
		*c = newColBuf(typ, firstRows)
		return
	}
	w.mu.Lock()
	big, ok := w.takeSpare()
	w.mu.Unlock()
	if !ok {
		big = newColBuf(typ, blockRows)
	}
	big.Type, big.n = typ, c.n
	copy(big.Seq, c.Seq)
	copy(big.T, c.T)
	copy(big.From, c.From)
	copy(big.To, c.To)
	copy(big.Kind, c.Kind)
	copy(big.Round, c.Round)
	copy(big.Value, c.Value)
	copy(big.Aux, c.Aux)
	*c = big
}

// takeSpare pops a recycled full-size buffer; mu is held.
func (w *Writer) takeSpare() (colBuf, bool) {
	n := len(w.spare)
	if n == 0 {
		return colBuf{}, false
	}
	b := w.spare[n-1]
	w.spare = w.spare[:n-1]
	return b, true
}

// handOff queues the full buffer *c for the encoder, starting one if
// none is running, and leaves an empty buffer in its place. It waits
// while maxInFlight buffers are out — the only place the producer blocks
// — and picks up the encoder's error, if it has one by now.
func (w *Writer) handOff(c *colBuf) {
	typ := c.Type
	w.mu.Lock()
	for w.inFlight == maxInFlight {
		w.cond.Wait()
	}
	w.err = w.encErr
	w.queue = append(w.queue, *c)
	w.inFlight++
	next, ok := w.takeSpare()
	if !w.busy {
		w.busy = true
		//syncsim:allowlist detrand writer-side block encoder: at most one exists at a time and it drains a FIFO queue of full buffers, so block offsets, footer order and every byte are those of inline encoding at any GOMAXPROCS; it reads filled column buffers only and touches no simulation state
		go w.drainFn()
	}
	w.mu.Unlock()
	if !ok {
		// Ramp-up only: at most one buffer per live type plus maxInFlight
		// are ever allocated, the rest of the run recycles them.
		next = newColBuf(typ, blockRows)
	}
	next.Type, next.n = typ, 0
	*c = next
}

// drain is the encoder goroutine: it encodes and writes queued buffers
// in order and exits when the queue is empty, so it never outlives the
// last hand-off's write. After a write error it keeps recycling buffers
// without encoding them — the bounded producer would otherwise wait
// forever — and writes nothing more.
func (w *Writer) drain() {
	w.mu.Lock()
	for len(w.queue) > 0 {
		c := w.queue[0]
		w.queue = append(w.queue[:0], w.queue[1:]...)
		failed := w.encErr != nil
		w.mu.Unlock()
		var err error
		if !failed {
			err = w.enc.block(&c)
		}
		w.mu.Lock()
		if err != nil {
			w.encErr = err
		}
		w.spare = append(w.spare, c)
		w.inFlight--
		w.cond.Broadcast()
	}
	w.busy = false
	w.cond.Broadcast()
	w.mu.Unlock()
}

// join waits until no encoder goroutine is left and takes over its error:
// from here on the encoder side belongs to the caller.
func (w *Writer) join() {
	w.mu.Lock()
	for w.busy {
		w.cond.Wait()
	}
	if w.err == nil {
		w.err = w.encErr
	}
	w.mu.Unlock()
}

// Flush waits for the queued blocks to be written, then writes the
// pending partial blocks, the footer index, and the trailer. It
// finalizes the container: further events are errors (reported by Err).
// Flush is idempotent — a second call reports the first call's outcome.
func (w *Writer) Flush() error {
	if w.done {
		return w.finalErr
	}
	w.done = true
	w.join()
	// Blocks flush in stream order per type; the footer keeps that order,
	// so a type's blocks are seq-sorted by construction.
	for ti := range w.pend {
		if c := &w.pend[ti]; c.n > 0 && w.err == nil {
			w.err = w.enc.block(c)
		}
	}
	if w.err == nil {
		// An empty trace still becomes a well-formed (empty) lake, so the
		// -trace flag never leaves a 0-byte file that Open rejects.
		w.err = w.enc.finish(w.seq)
	}
	w.finalErr = w.err
	return w.err
}

// blockEncoder turns full column buffers into the container's bytes: it
// owns the destination, the running offset and the footer index.
type blockEncoder struct {
	out    io.Writer
	off    uint64
	blocks []blockMeta
	buf    []byte
	cols   colEncoder
}

// begin starts a checksummed frame of about size bytes in the scratch
// buffer — preceded by the container magic if nothing has been written
// yet — and returns it with the offset of the four bytes seal fills in.
func (e *blockEncoder) begin(size int) ([]byte, int) {
	buf := slices.Grow(e.buf[:0], len(Magic)+4+size)
	if e.off == 0 {
		buf = append(buf, Magic[:]...)
	}
	return append(buf, 0, 0, 0, 0), len(buf)
}

// seal stores the CRC of everything behind the reserved bytes at crcAt.
func seal(buf []byte, crcAt int) {
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.Checksum(buf[crcAt+4:], castagnoli))
}

// write emits one frame with a single Write and advances the offset.
func (e *blockEncoder) write(buf []byte) error {
	e.buf = buf
	_, err := e.out.Write(buf)
	e.off += uint64(len(buf))
	return err
}

// block encodes the c.n rows of c as one column block, writes it, and
// records its footer entry.
func (e *blockEncoder) block(c *colBuf) error {
	n := c.n
	// Payload: type, count, then the eight columns. 16 bytes a row covers
	// the usual block; the column encoders grow the buffer past it.
	buf, crcAt := e.begin(16 * n)
	buf = append(buf, byte(c.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf, _, _ = ints(&e.cols, buf, c.Seq[:n], 0, false)
	buf, tLo, tHi := ints(&e.cols, buf, images(c.T[:n]), 0, true)
	buf, fromLo, fromHi := ints(&e.cols, buf, c.From[:n], i32Bias, false)
	buf, toLo, toHi := ints(&e.cols, buf, c.To[:n], i32Bias, false)
	buf, _, _ = ints(&e.cols, buf, c.Kind[:n], 0, false)
	buf, roundLo, roundHi := ints(&e.cols, buf, c.Round[:n], i32Bias, false)
	buf, _, _ = ints(&e.cols, buf, images(c.Value[:n]), 0, true)
	buf, _, _ = ints(&e.cols, buf, images(c.Aux[:n]), 0, true)
	seal(buf, crcAt)

	// The footer entry's bounds fall out of the columns' image bounds: the
	// i32 image order is the int32 order.
	meta := blockMeta{
		typ:      c.Type,
		count:    uint32(n),
		offset:   e.off + uint64(crcAt),
		length:   uint64(len(buf) - crcAt),
		seqMin:   c.Seq[0],
		nodeMin:  int32(min(fromLo, toLo) - i32Bias),
		nodeMax:  int32(max(fromHi, toHi) - i32Bias),
		roundMin: int32(roundLo - i32Bias),
		roundMax: int32(roundHi - i32Bias),
	}
	meta.tMin, meta.tMax = timeBounds(c.T[:n], tLo, tHi)
	e.blocks = append(e.blocks, meta)
	return e.write(buf)
}

// timeBounds is a block's minimum and maximum time as math.Min and
// math.Max fold them (an infinity beats a NaN, -0 < +0). From +0 to +Inf
// the order of bit images is the float order, so the column's image
// bounds are the answer for every trace a simulation writes; anything
// else is scanned.
func timeBounds(t []float64, lo, hi uint64) (tMin, tMax float64) {
	if hi <= math.Float64bits(math.Inf(1)) {
		return math.Float64frombits(lo), math.Float64frombits(hi)
	}
	tMin, tMax = math.Inf(1), math.Inf(-1)
	for _, v := range t {
		tMin, tMax = math.Min(tMin, v), math.Max(tMax, v)
	}
	return tMin, tMax
}

// finish writes the footer index of every block and the trailer.
func (e *blockEncoder) finish(events uint64) error {
	buf, crcAt := e.begin(16 + metaEncSize*len(e.blocks) + trailerSize)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(e.blocks)))
	buf = binary.LittleEndian.AppendUint64(buf, events)
	for i := range e.blocks {
		buf = e.blocks[i].append(buf)
	}
	seal(buf, crcAt)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(buf)-crcAt))
	return e.write(append(buf, endMagic[:]...))
}
