package tracelake

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"optsync/internal/probe"
)

// FuzzLakeDecode damages one checksummed region of a small lake — one
// block's payload or the footer body — and re-seals that region's crc, so
// the mutation reaches the decoders behind the checksums. Either the
// damaged container fails to open, or every read entry point survives it
// without a panic and fails or succeeds identically at one and three
// workers; when the ordered scan succeeds, a match-all Replay into the
// built-in collectors replays exactly as many events.
//
//	go test -run xxx -fuzz FuzzLakeDecode -fuzztime 10s -fuzzminimizetime 1s ./internal/tracelake
func FuzzLakeDecode(f *testing.F) {
	evs := synthEvents(4, 8, 5)
	good := buildLake(f, evs)
	l, err := OpenBytes(good)
	if err != nil {
		f.Fatal(err)
	}
	blocks := append([]blockMeta(nil), l.blocks...)
	l.Close()
	tMax := evs[len(evs)-1].T

	// region returns the crc-covered bytes target selects (the footer
	// after the last block) and the offset of the crc that seals them.
	region := func(data []byte, target int) (crcAt, start, end int) {
		if target < len(blocks) {
			m := blocks[target]
			return int(m.offset), int(m.offset) + 4, int(m.offset + uint64(m.length))
		}
		fl := int(binary.LittleEndian.Uint64(data[len(data)-16:]))
		crcAt = len(data) - 16 - fl
		return crcAt, crcAt + 4, len(data) - 16
	}

	// Seeds: testdata/fuzz/FuzzLakeDecode, one per decoder the mutation
	// lands in (block header, codec byte, column bytes, footer entry).
	f.Fuzz(func(t *testing.T, target uint8, at uint16, mask []byte) {
		data := bytes.Clone(good)
		crcAt, start, end := region(data, int(target)%(len(blocks)+1))
		if len(mask) == 0 || end <= start {
			return
		}
		for i, b := range mask {
			data[start+(int(at)+i)%(end-start)] ^= b
		}
		binary.LittleEndian.PutUint32(data[crcAt:], crc32.Checksum(data[start:end], castagnoli))

		partial := Query{}.WithTimeRange(tMax*0.25, tMax*0.5)
		reads := map[string]func(*Lake, Query) (uint64, error){
			"Scan": func(l *Lake, q Query) (uint64, error) {
				st, err := l.Scan(q, func(probe.Event) error { return nil })
				return st.EventsMatched, err
			},
			"ScanRows": func(l *Lake, q Query) (uint64, error) {
				st, err := l.ScanRows(q, func(*Rows) error { return nil })
				return st.RowsDecoded, err
			},
			"ScanUnordered": func(l *Lake, q Query) (uint64, error) {
				st, err := l.ScanUnordered(q, func(probe.Event) error { return nil })
				return st.EventsMatched, err
			},
			"Stats": func(l *Lake, q Query) (uint64, error) {
				st, err := l.Stats(q)
				return st.EventsMatched, err
			},
			"Replay": func(l *Lake, q Query) (uint64, error) {
				n, err := l.Replay(q, probe.NewSkewStats(), probe.NewSpreadStats(), probe.NewMsgStats())
				return uint64(n), err
			},
		}
		for name, read := range reads {
			for _, q := range []Query{{}, partial} {
				var ref string
				for _, w := range []int{1, 3} {
					l, err := OpenBytes(data)
					if err != nil {
						return
					}
					_, err = read(l, q.WithWorkers(w))
					l.Close()
					got := "<nil>"
					if err != nil {
						got = err.Error()
					}
					if w == 1 {
						ref = got
					} else if got != ref {
						t.Fatalf("%s(%+v): workers=1 gave %s, workers=3 %s", name, q, ref, got)
					}
				}
			}
		}

		l, err := OpenBytes(data)
		if err != nil {
			return
		}
		defer l.Close()
		scanned, err := reads["Scan"](l, Query{})
		if err != nil {
			return
		}
		if replayed, err := reads["Replay"](l, Query{}); err != nil || replayed != scanned {
			t.Fatalf("Scan matched %d events, Replay replayed %d (%v)", scanned, replayed, err)
		}
	})
}
