package tracelake

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"

	"optsync/internal/probe"
)

// writeLakeFile persists an in-memory container to a temp file.
func writeLakeFile(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.lake")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func scanAll(t *testing.T, l *Lake) []probe.Event {
	t.Helper()
	var evs []probe.Event
	if _, err := l.Scan(Query{}, func(ev probe.Event) error {
		evs = append(evs, ev)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return evs
}

// TestOpenMmap: Open maps the file where the platform can, and the scan
// reproduces the recorded stream exactly; with mapping made to fail, Open
// reads the file into memory and produces the same events. Both close
// cleanly.
func TestOpenMmap(t *testing.T) {
	evs := synthEvents(6, 20, 13)
	image := buildLake(t, evs)
	path := writeLakeFile(t, image)

	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_, unmap, merr := mmapOpen(f, int64(len(image)))
	f.Close()
	if merr == nil {
		unmap()
	}
	if l.Mapped() != (merr == nil) {
		t.Fatalf("Open mapped = %v, but mapping the file here gave %v", l.Mapped(), merr)
	}
	got := scanAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close after mmap: %v", err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("mmap-backed scan diverges from the recorded stream")
	}

	mapFile = func(*os.File, int64) ([]byte, func() error, error) { return nil, nil, syscall.ENOMEM }
	t.Cleanup(func() { mapFile = mmapOpen })
	l, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l.Mapped() {
		t.Fatal("a failed mapping still reports Mapped")
	}
	got = scanAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatalf("Close after reading into memory: %v", err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("in-memory scan diverges from the recorded stream")
	}
}

// TestOpenMmapCorrupt: damage in an on-disk lake surfaces through the
// mmap path with the same offset-naming errors the in-memory path
// reports — truncation at open time, a flipped block byte at first
// touch (mmap verifies checksums lazily, once per block).
func TestOpenMmapCorrupt(t *testing.T) {
	good := buildLake(t, synthEvents(6, 20, 17))

	t.Run("truncated", func(t *testing.T) {
		path := writeLakeFile(t, good[:len(good)*2/3])
		l, err := Open(path)
		if err == nil {
			l.Close()
			t.Fatal("truncated lake opened")
		}
		if !strings.Contains(err.Error(), "offset") {
			t.Fatalf("truncation error names no offset: %v", err)
		}
	})

	t.Run("empty", func(t *testing.T) {
		l, err := Open(writeLakeFile(t, nil))
		if err == nil {
			l.Close()
			t.Fatal("empty file opened")
		}
		if !strings.Contains(err.Error(), "0 bytes") {
			t.Fatalf("empty file gave %v", err)
		}
	})

	t.Run("block_bitflip", func(t *testing.T) {
		data := append([]byte(nil), good...)
		data[len(Magic)+16] ^= 0x40
		path := writeLakeFile(t, data)
		l, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		_, err = l.Scan(Query{}, func(probe.Event) error { return nil })
		if err == nil || !strings.Contains(err.Error(), "checksum") || !strings.Contains(err.Error(), "offset") {
			t.Fatalf("flipped byte in mapped lake gave %v", err)
		}
	})
}
