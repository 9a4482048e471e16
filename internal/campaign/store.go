package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"optsync/internal/harness"
)

// storeVersion is bumped whenever the store layout (or the meaning of a
// spec key) changes incompatibly; Open refuses stores written by a
// different version rather than silently serving stale answers.
// Version 2 (PR 18): the simulator's random streams moved from math/rand's
// lagged-Fibonacci source to sim.Stream, so a spec key maps to different
// concrete samples than the ones a v1 store recorded.
// Version 3 (PR 23): a cell is a line of a segment, not a file of its
// own. Results did not change, so Open upgrades a v2 store in place.
const storeVersion = 3

// Modes every store path is created with, so a store can be inspected
// (or served) by another uid without chmod surgery.
const (
	storeDirMode  = 0o755
	storeFileMode = 0o644
)

// storeMeta is the store's self-description, written once at creation.
type storeMeta struct {
	Version int `json:"version"`
}

// cellFile is the on-disk form of one completed cell: one line of a
// segment. The key is repeated inside the line so a store survives being
// rsynced, and so Open can rebuild the index from the segments alone.
type cellFile struct {
	Version int            `json:"version"`
	Key     string         `json:"key"`
	Result  harness.Result `json:"result"`
}

// Store is a content-addressed directory of completed runs, keyed by
// canonical spec hash (harness.SpecKey). Layout:
//
//	<dir>/meta.json
//	<dir>/cells/open-NNNNNN.jsonl    unsealed segment: accepted cells, appended
//	<dir>/segments/seg-NNNNNN.jsonl  sealed segments: fsynced, never written again
//	<dir>/segments/index.json        key -> (segment, offset, length), sealed cells
//
// There is one tier: a cell is a line of a segment, found through the
// in-memory index, and a segment is either open for appending (cells/) or
// sealed (segments/). PutBatch issues one write(2) on the open segment
// and a cell is accepted when that returns; a killed writer leaves at
// most a torn last line, which Open cuts off, so a line either exists
// whole or not at all — the invariant that makes campaigns resumable by
// construction. index.go has the seal and Open's recovery scan.
//
// A Store is safe for concurrent use by multiple goroutines of one
// process. Write ownership across processes is not arbitrated: exactly
// one process (a campaign run, or a serve coordinator) should have a
// given store open at a time.
type Store struct {
	dir string
	ops fsOps

	sealMu sync.Mutex // one seal at a time; taken before mu
	mu     sync.Mutex
	idx    map[string]segRef // every accepted cell, sealed or not
	// unsealed are the segments under cells/, oldest first; appends go to
	// the last. The first sealing of them are detached by a seal in
	// flight: they take no appends but answer Get through their
	// descriptors until the index names their sealed files.
	unsealed       []*openSeg
	sealing        int
	seq, sealedSeq int   // last segment number allocated; highest sealed
	err            error // set once the store refuses writes
	stats          Stats
	// warn reports recoverable store damage (a torn or corrupt line that
	// is treated as missing and re-run).
	warn func(format string, args ...any)
}

// Stats counts what a Store has done since Open. It describes the
// execution, not the results: no cell, record or report carries it.
type Stats struct {
	Puts           int   `json:"puts"`           // cells appended
	DuplicatePuts  int   `json:"duplicate_puts"` // already held: no-ops
	Batches        int   `json:"batches"`        // write(2) calls
	BytesAppended  int64 `json:"bytes_appended"`
	Hits           int   `json:"hits"`
	Misses         int   `json:"misses"`
	DamagedReads   int   `json:"damaged_reads"` // indexed but unreadable: misses
	Seals          int   `json:"seals"`
	LinesRecovered int   `json:"lines_recovered"` // indexed by Open's scan
	TornTails      int   `json:"torn_tails"`      // cut off by Open
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// segFile is what the store needs of an *os.File, and fsOps how it opens
// segments and publishes files: the seam fault-injection tests fail.
type segFile interface {
	io.Writer
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

type fsOps struct {
	open   func(path string, flag int) (segFile, error)
	rename func(oldpath, newpath string) error
}

var osOps = fsOps{
	open: func(path string, flag int) (segFile, error) {
		f, err := os.OpenFile(path, flag, storeFileMode)
		if err != nil {
			return nil, err
		}
		return f, nil
	},
	rename: os.Rename,
}

// Open opens or creates a store directory (parents included). It is also
// the recovery path: what a killed or unsealed run left under cells/ is
// indexed again, a torn last line is cut off, and a lost index.json is
// rebuilt from the sealed segments.
func Open(dir string) (*Store, error) { return openStore(dir, osOps, log.Printf) }

func openStore(dir string, ops fsOps, warn func(string, ...any)) (*Store, error) {
	if dir == "" {
		return nil, errors.New("campaign: empty store directory")
	}
	// The only directories a store ever has.
	for _, sub := range []string{"", "cells", "segments"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), storeDirMode); err != nil {
			return nil, fmt.Errorf("campaign: creating store: %w", err)
		}
	}
	s := &Store{dir: dir, ops: ops, warn: warn, idx: make(map[string]segRef)}
	meta := storeMeta{Version: storeVersion}
	data, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		err = s.writeMeta()
	case err == nil:
		if err = json.Unmarshal(data, &meta); err != nil {
			err = fmt.Errorf("campaign: corrupt store meta in %s: %w", dir, err)
		} else if meta.Version != storeVersion && meta.Version != 2 {
			err = fmt.Errorf("campaign: store %s has version %d, this binary speaks %d", dir, meta.Version, storeVersion)
			if meta.Version < storeVersion {
				err = fmt.Errorf("%w: its results were computed by a different random generator; settle into a fresh store", err)
			}
		}
	default:
		err = fmt.Errorf("campaign: reading store meta: %w", err)
	}
	if err == nil {
		err = s.recoverSegments()
	}
	if err == nil && meta.Version == 2 {
		err = s.upgradeV2()
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) writeMeta() error {
	blob, err := json.Marshal(storeMeta{Version: storeVersion})
	if err == nil {
		err = s.writeAtomic(filepath.Join(s.dir, "meta.json"), append(blob, '\n'))
	}
	if err != nil {
		return fmt.Errorf("campaign: writing store meta: %w", err)
	}
	return nil
}

// upgradeV2 moves a version 2 store's one-file-per-cell documents into a
// sealed segment through the ordinary append and seal, and only then
// unlinks them and raises meta.json: killed anywhere, the next Open finds
// a v2 store again and skips the cells it already moved.
func (s *Store) upgradeV2() error {
	loose, err := filepath.Glob(filepath.Join(s.dir, "cells", "??", "*.json"))
	if err != nil {
		return err
	}
	for _, path := range loose {
		key := strings.TrimSuffix(filepath.Base(path), ".json")
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("campaign: upgrading store: %w", err)
		}
		res, derr := decodeCell(data, key)
		if derr != nil || !validKey(key) {
			s.warn("campaign: store %s: corrupt cell %s (%v); not carried over, it will be re-run", s.dir, path, derr)
		} else if err := s.Put(key, res); err != nil {
			return err
		}
	}
	if _, err := s.Compact(); err != nil {
		return err
	}
	for _, path := range loose {
		os.Remove(path)
		os.Remove(filepath.Dir(path)) // succeeds once the shard is empty
	}
	return s.writeMeta()
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// SetWarn replaces the destination of recoverable-damage warnings
// (default log.Printf). A nil fn silences them.
func (s *Store) SetWarn(fn func(format string, args ...any)) {
	if fn == nil {
		fn = func(string, ...any) {}
	}
	s.mu.Lock()
	s.warn = fn
	s.mu.Unlock()
}

func (s *Store) warnf(format string, args ...any) {
	s.mu.Lock()
	fn := s.warn
	s.mu.Unlock()
	fn(format, args...)
}

// validKey reports whether key has the shape of a harness.SpecKey, 64
// lowercase hex digits. Nothing else is ever indexed: any other string is
// a miss from Get and an error from Put.
func validKey(key string) bool {
	return len(key) == 64 && strings.Trim(key, "0123456789abcdef") == ""
}

// decodeCell parses one cell document, enforcing the key it must carry.
func decodeCell(data []byte, key string) (harness.Result, error) {
	var cell cellFile
	if err := json.Unmarshal(data, &cell); err != nil {
		return harness.Result{}, err
	}
	if cell.Key != key {
		return harness.Result{}, fmt.Errorf("document claims key %s", cell.Key)
	}
	return cell.Result, nil
}

// Get returns the stored result for key, reporting whether it exists.
// A line that does not read back whole — a vanished or cut segment, a
// corrupt document, bit rot — is logged, dropped from the index and
// treated as missing, so the campaign re-runs that one cell instead of
// refusing to make progress, and the fresh result's Put heals the store.
func (s *Store) Get(key string) (harness.Result, bool, error) {
	s.mu.Lock()
	ref, ok := s.idx[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		return harness.Result{}, false, nil
	}
	s.stats.Hits++
	var data []byte
	var err error
	if seg := s.unsealedLocked(ref.Segment); seg != nil {
		// Under the lock: a seal closes the descriptor when it is done.
		data = make([]byte, ref.Length)
		_, err = seg.f.ReadAt(data, ref.Offset)
	}
	s.mu.Unlock()
	if data == nil {
		data, err = s.readSealed(ref)
	}
	var res harness.Result
	if err == nil {
		res, err = decodeCell(data, key)
	}
	if err == nil {
		return res, true, nil
	}
	s.mu.Lock()
	s.stats.Hits--
	s.stats.DamagedReads++
	if s.idx[key] == ref { // unless a Put healed it meanwhile
		delete(s.idx, key)
	}
	s.mu.Unlock()
	s.warnf("campaign: store %s: corrupt cell %s in %s (%v); treating as missing, it will be re-run", s.dir, key, ref.Segment, err)
	return harness.Result{}, false, nil
}

// Put stores the result under key; see PutBatch.
func (s *Store) Put(key string, res harness.Result) error {
	return s.PutBatch(1, func(int) (string, harness.Result) { return key, res })
}

// PutBatch stores n results, cell(i) yielding the i-th key and result,
// with one write(2) on the open segment; when it returns nil the cells
// are accepted — a later Open finds them, killed process or not. Series
// and pulse logs are not persisted: cells are the statistical unit of a
// campaign, and storing full time series would make store size
// proportional to simulated time rather than to the number of cells. A
// key the store already answers is a no-op: results are
// content-addressed, so a duplicate report carries byte-identical data
// by construction. A key that is not a SpecKey is an error and nothing of
// the batch is written. A failed write is cut back off the segment; if
// that fails too, the store refuses every later write with this error.
func (s *Store) PutBatch(n int, cell func(i int) (string, harness.Result)) error {
	// Encode through a pooled buffer, outside the lock: a coordinator
	// absorbing a fleet's reports would otherwise allocate a fresh
	// multi-KB blob per RPC. Encoder.Encode ends each line with '\n'.
	b := putBufPool.Get().(*putBuf)
	defer putBufPool.Put(b)
	b.buf.Reset()
	b.lines = b.lines[:0]
	for i := 0; i < n; i++ {
		key, res := cell(i)
		if !validKey(key) {
			return fmt.Errorf("campaign: cell key %q is not a spec key (64 lowercase hex digits)", key)
		}
		s.mu.Lock()
		_, dup := s.idx[key]
		s.mu.Unlock()
		if dup {
			continue
		}
		res.Series, res.Pulses = nil, nil
		off := b.buf.Len()
		if err := b.enc.Encode(cellFile{Version: storeVersion, Key: key, Result: res}); err != nil {
			return fmt.Errorf("campaign: encoding cell %s: %w", key, err)
		}
		b.lines = append(b.lines, putLine{key, int64(off), int64(b.buf.Len() - off)})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.DuplicatePuts += n - len(b.lines)
	if s.err != nil || len(b.lines) == 0 {
		return s.err
	}
	if len(s.unsealed) == s.sealing {
		if err := s.newSegmentLocked(); err != nil {
			return err
		}
	}
	seg, size := s.unsealed[len(s.unsealed)-1], int64(b.buf.Len())
	if _, err := seg.f.Write(b.buf.Bytes()); err != nil {
		err = fmt.Errorf("campaign: appending %d cells to %s: %w", len(b.lines), seg.name, err)
		if terr := seg.f.Truncate(seg.size); terr != nil {
			err = fmt.Errorf("%w (and the partial write could not be cut off: %v)", err, terr)
			s.err = err
		}
		return err
	}
	for _, l := range b.lines {
		s.idx[l.key] = segRef{Segment: seg.name, Offset: seg.size + l.off, Length: l.len}
	}
	seg.size += size
	s.stats.Puts += len(b.lines)
	s.stats.Batches++
	s.stats.BytesAppended += size
	return nil
}

// putBuf is PutBatch's pooled encode scratch: the bytes of one write and
// where each cell's line lies in them.
type putBuf struct {
	buf   bytes.Buffer
	enc   *json.Encoder
	lines []putLine
}

type putLine struct {
	key      string
	off, len int64
}

var putBufPool = sync.Pool{New: func() any {
	b := &putBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// Len counts the distinct completed cells in the store, sealed or not.
func (s *Store) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx), nil
}

// writeAtomic publishes meta.json and index.json: temp file, then rename,
// so readers (and the Open after a kill) never observe a torn file. The
// temp name is fixed — one process writes a store — so a kill's leftover
// is overwritten by the next publish instead of accumulating.
func (s *Store) writeAtomic(path string, data []byte) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, data, storeFileMode); err != nil {
		return err
	}
	return s.ops.rename(tmp, path)
}
