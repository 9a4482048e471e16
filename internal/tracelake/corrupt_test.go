package tracelake

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"

	"optsync/internal/probe"
)

// openCorrupt asserts that opening (or fully scanning) data fails with a
// clear error mentioning every fragment in want — and never panics.
func openCorrupt(t *testing.T, data []byte, want ...string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("corrupt container panicked: %v", r)
		}
	}()
	l, err := OpenBytes(data)
	if err == nil {
		// Footer survived; the damage must surface during the scan.
		_, err = l.Scan(Query{}, func(probe.Event) error { return nil })
	}
	if err == nil {
		t.Fatalf("corrupt container accepted (%d bytes)", len(data))
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Fatalf("error %q does not mention %q", err, w)
		}
	}
}

func TestCorruptLake(t *testing.T) {
	good := buildLake(t, synthEvents(6, 6, 9))

	t.Run("bad_magic", func(t *testing.T) {
		data := bytes.Clone(good)
		data[0] = 'X'
		openCorrupt(t, data, "bad magic", "offset 0")
	})

	t.Run("empty_file", func(t *testing.T) {
		openCorrupt(t, nil, "smaller than an empty container")
	})

	t.Run("truncated_mid_file", func(t *testing.T) {
		// Cut anywhere: the trailer is gone, so the end magic check fires.
		for _, frac := range []float64{0.2, 0.5, 0.9} {
			openCorrupt(t, good[:int(float64(len(good))*frac)], "offset")
		}
	})

	t.Run("truncated_one_byte", func(t *testing.T) {
		openCorrupt(t, good[:len(good)-1], "end magic", "truncated")
	})

	t.Run("garbage_footer", func(t *testing.T) {
		data := bytes.Clone(good)
		// The footer sits between the last block and the trailer; smash
		// the middle of it.
		fl := binary.LittleEndian.Uint64(data[len(data)-16:])
		start := len(data) - 16 - int(fl)
		for i := start + 4; i < start+int(fl); i++ {
			data[i] ^= 0xa5
		}
		openCorrupt(t, data, "footer checksum mismatch", "offset")
	})

	t.Run("footer_length_lies", func(t *testing.T) {
		data := bytes.Clone(good)
		binary.LittleEndian.PutUint64(data[len(data)-16:], uint64(len(data)*2))
		openCorrupt(t, data, "footer length")
	})

	t.Run("footer_length_wraps", func(t *testing.T) {
		// A length past 2^63 goes negative as an offset; it must be
		// refused, not sliced or allocated.
		for _, fl := range []uint64{1 << 63, ^uint64(0)} {
			data := bytes.Clone(good)
			binary.LittleEndian.PutUint64(data[len(data)-16:], fl)
			openCorrupt(t, data, "footer length")
		}
	})

	t.Run("footer_block_count_wraps", func(t *testing.T) {
		// One byte more of entries than whole entries fill: the block
		// count whose product with the entry size wraps to that length
		// must be refused, not allocated.
		fl := binary.LittleEndian.Uint64(good[len(good)-16:])
		start := len(good) - 16 - int(fl)
		data := append(bytes.Clone(good[:len(good)-16]), 0)
		data = binary.LittleEndian.AppendUint64(data, fl+1)
		data = append(data, good[len(good)-8:]...)
		entries := fl + 1 - 4 - 16
		inv := uint64(1) // metaEncSize is odd, so it has an inverse mod 2^64
		for i := 0; i < 6; i++ {
			inv *= 2 - metaEncSize*inv
		}
		binary.LittleEndian.PutUint64(data[start+4:], entries*inv)
		reseal(data, start, fl+1)
		openCorrupt(t, data, "indexes")
	})

	t.Run("block_bitflip", func(t *testing.T) {
		data := bytes.Clone(good)
		// Flip a byte early in the first block's payload: the block crc
		// must catch it at scan time with the block's offset in the error.
		data[len(Magic)+16] ^= 0x40
		openCorrupt(t, data, "checksum", "offset")
	})

	t.Run("footer_points_outside_file", func(t *testing.T) {
		data := bytes.Clone(good)
		fl := binary.LittleEndian.Uint64(data[len(data)-16:])
		start := len(data) - 16 - int(fl)
		body := data[start+4:]
		// First meta's offset field (entry starts after 8B count + 8B total).
		binary.LittleEndian.PutUint64(body[16+5:], uint64(len(data)+1000))
		// Re-seal the footer so only the bounds check can object.
		reseal(data, start, fl)
		openCorrupt(t, data, "outside the data region")
	})

	t.Run("footer_count_implausible", func(t *testing.T) {
		data := bytes.Clone(good)
		fl := binary.LittleEndian.Uint64(data[len(data)-16:])
		start := len(data) - 16 - int(fl)
		body := data[start+4:]
		binary.LittleEndian.PutUint32(body[16+1:], maxBlockRows+1)
		reseal(data, start, fl)
		openCorrupt(t, data, "implausible row count")
	})
}

// reseal recomputes the footer crc after a deliberate mutation, so the
// test reaches the validation behind the checksum.
func reseal(data []byte, start int, fl uint64) {
	body := data[start+4 : start+int(fl)]
	binary.LittleEndian.PutUint32(data[start:], crc32.Checksum(body, castagnoli))
}
