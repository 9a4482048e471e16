package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"optsync/internal/harness"
)

// storeVersion is bumped whenever the cell file format (or the meaning
// of a spec key) changes incompatibly; Open refuses stores written by a
// different version rather than silently serving stale answers.
// Version 2 (PR 18): the simulator's random streams moved from math/rand's
// lagged-Fibonacci source to sim.Stream, so a spec key maps to different
// concrete samples than the ones a v1 store recorded.
const storeVersion = 2

// Directory and file modes every store path is created with. Cell files
// historically inherited os.CreateTemp's 0600 while directories got
// 0755; ensureStoreDir + writeAtomic now normalize both so a store can
// be inspected (or served) by another uid without chmod surgery.
const (
	storeDirMode  = 0o755
	storeFileMode = 0o644
)

// storeMeta is the store's self-description, written once at creation.
type storeMeta struct {
	Version int `json:"version"`
}

// cellFile is the on-disk form of one completed cell, both as a loose
// one-file-per-cell JSON document and as one line of an append-only
// segment. The key is repeated inside the file so a store survives
// being rsynced or having files inspected in isolation.
type cellFile struct {
	Version int            `json:"version"`
	Key     string         `json:"key"`
	Result  harness.Result `json:"result"`
}

// Store is a content-addressed directory of completed runs, keyed by
// canonical spec hash (harness.SpecKey). Layout:
//
//	<dir>/meta.json
//	<dir>/cells/<key[:2]>/<key>.json     loose cells (one file each)
//	<dir>/segments/seg-NNNNNN.jsonl      compacted cells (append-only)
//	<dir>/segments/index.json            key -> (segment, offset, length)
//
// Writes are atomic (temp file + rename in the same directory), so a
// killed campaign never leaves a partial cell behind: a cell file either
// exists and is complete, or does not exist. That single invariant is
// what makes campaigns resumable by construction.
//
// Compact folds finished loose cells into indexed segments so
// million-cell campaigns don't mean a million files; lookups consult the
// loose tier first and fall back to the segment index, and the segment
// entry is indexed before its loose file is removed, so compaction is
// safe to run while a coordinator keeps writing fresh results.
//
// A Store is safe for concurrent use by multiple goroutines of one
// process. Write ownership across processes is not arbitrated: exactly
// one process (a campaign run, or a serve coordinator) should write and
// compact a given store at a time.
type Store struct {
	dir string

	mu  sync.Mutex
	idx map[string]segRef // compacted cells, loaded at Open
	seq int               // last allocated segment number
	// warn reports recoverable store damage (a truncated or corrupt cell
	// that will be treated as missing and re-run).
	warn func(format string, args ...any)
}

// ensureStoreDir normalizes store directory creation for every path
// that makes one — `syncsim campaign -store`, `syncsim serve -store`,
// workers, and the library API all funnel through it. It creates the
// directory and its parents plus the cells/ and segments/ tiers, all
// with one consistent mode.
func ensureStoreDir(dir string) error {
	if dir == "" {
		return errors.New("campaign: empty store directory")
	}
	for _, sub := range []string{"", "cells", "segments"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), storeDirMode); err != nil {
			return fmt.Errorf("campaign: creating store: %w", err)
		}
	}
	return nil
}

// Open opens or creates a store directory (parents included).
func Open(dir string) (*Store, error) {
	if err := ensureStoreDir(dir); err != nil {
		return nil, err
	}
	metaPath := filepath.Join(dir, "meta.json")
	data, err := os.ReadFile(metaPath)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		blob, err := json.Marshal(storeMeta{Version: storeVersion})
		if err != nil {
			return nil, err
		}
		if err := writeAtomic(metaPath, append(blob, '\n')); err != nil {
			return nil, fmt.Errorf("campaign: writing store meta: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("campaign: reading store meta: %w", err)
	default:
		var meta storeMeta
		if err := json.Unmarshal(data, &meta); err != nil {
			return nil, fmt.Errorf("campaign: corrupt store meta %s: %w", metaPath, err)
		}
		if meta.Version != storeVersion {
			err := fmt.Errorf("campaign: store %s has version %d, this binary speaks %d",
				dir, meta.Version, storeVersion)
			if meta.Version < storeVersion {
				err = fmt.Errorf("%w: its results were computed by a different random generator; settle into a fresh store", err)
			}
			return nil, err
		}
	}
	s := &Store{dir: dir, warn: log.Printf}
	if err := s.loadIndex(); err != nil {
		return nil, err
	}
	return s, nil
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

func (s *Store) cellPath(key string) string {
	return filepath.Join(s.dir, "cells", key[:2], key+".json")
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
// A truncated or corrupt cell — a crash artifact, a torn copy, bit rot —
// is logged and treated as missing, so the campaign re-runs that one
// cell instead of refusing to make progress; the fresh result overwrites
// the damage. (Only I/O failures below the JSON layer are errors.)
func (s *Store) Get(key string) (harness.Result, bool, error) {
	data, err := os.ReadFile(s.cellPath(key))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return s.getCompacted(key)
	case err != nil:
		return harness.Result{}, false, fmt.Errorf("campaign: reading cell %s: %w", key, err)
	}
	res, derr := decodeCell(data, key)
	if derr != nil {
		s.warnf("campaign: store %s: corrupt cell %s (%v); treating as missing, it will be re-run", s.dir, key, derr)
		return s.getCompacted(key)
	}
	return res, true, nil
}

// Put stores the result under key, atomically. Series and pulse logs are
// not persisted: cells are the statistical unit of a campaign, and
// storing full time series would make store size proportional to
// simulated time rather than to the number of cells. A key the segment
// index already answers is a no-op: results are content-addressed, so a
// duplicate report carries byte-identical data by construction.
func (s *Store) Put(key string, res harness.Result) error {
	s.mu.Lock()
	_, compacted := s.idx[key]
	s.mu.Unlock()
	if compacted {
		return nil
	}
	res.Series = nil
	res.Pulses = nil
	// Encode through a pooled buffer: Put runs once per settled cell, and
	// a coordinator absorbing a fleet's reports would otherwise allocate
	// a fresh multi-KB blob per RPC. Encoder.Encode appends the trailing
	// newline Marshal+append used to.
	b := putBufPool.Get().(*putBuf)
	defer putBufPool.Put(b)
	b.buf.Reset()
	if err := b.enc.Encode(cellFile{Version: storeVersion, Key: key, Result: res}); err != nil {
		return fmt.Errorf("campaign: encoding cell %s: %w", key, err)
	}
	path := s.cellPath(key)
	if err := os.MkdirAll(filepath.Dir(path), storeDirMode); err != nil {
		return fmt.Errorf("campaign: creating cell shard: %w", err)
	}
	if err := writeAtomic(path, b.buf.Bytes()); err != nil {
		return fmt.Errorf("campaign: writing cell %s: %w", key, err)
	}
	return nil
}

// putBuf is Put's pooled encode scratch.
type putBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var putBufPool = sync.Pool{New: func() any {
	b := &putBuf{}
	b.enc = json.NewEncoder(&b.buf)
	return b
}}

// looseCells walks the one-file-per-cell tier, yielding (key, path) in
// deterministic (lexical) order.
func (s *Store) looseCells() ([][2]string, error) {
	var out [][2]string
	err := filepath.WalkDir(filepath.Join(s.dir, "cells"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if !d.IsDir() && filepath.Ext(name) == ".json" && !strings.HasPrefix(name, ".") {
			out = append(out, [2]string{strings.TrimSuffix(name, ".json"), path})
		}
		return nil
	})
	return out, err
}

// Len counts the distinct completed cells in the store, across both the
// loose and compacted tiers.
func (s *Store) Len() (int, error) {
	loose, err := s.looseCells()
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.idx)
	for _, kp := range loose {
		if _, ok := s.idx[kp[0]]; !ok {
			n++
		}
	}
	return n, nil
}

// writeAtomic writes data to path via a temp file and rename, so
// concurrent readers (and crashed writers) never observe a torn file.
// The published file carries the store-wide mode rather than
// CreateTemp's private 0600.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Chmod(storeFileMode)
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
