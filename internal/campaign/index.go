package campaign

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Segments, the seal, and recovery. Accepted cells sit in an unsealed
// segment under cells/ until a seal (Compact, Close, the coordinator's
// CompactEvery) makes them index-durable, in this order:
//
//  1. detach the unsealed segments under the lock — later Puts open a
//     fresh one, Gets keep reading the detached descriptors;
//  2. fsync each, then rename it cells/open-N -> segments/seg-N;
//  3. point the index at the sealed names and publish index.json
//     (temp file + rename) with last_seq = N.
//
// Open recovers from a kill in any window from the files alone. Before
// the rename: the segment is still under cells/ and is scanned like any
// unsealed one (a torn last line is cut off: no Put had returned for it).
// Between rename and publish, or mid-publish: index.json is the old one,
// whole, and seg-N is newer than its last_seq, so seg-N is scanned. A
// lost or corrupt index.json counts as last_seq = 0: every sealed segment
// is scanned, and the index rewritten. The scan trusts only a line's
// leading key; Get checks the whole document against its key, whichever
// file answers.
const indexVersion = 1

const (
	openPrefix = "open-" // under cells/
	segPrefix  = "seg-"  // under segments/
)

// segRef locates one cell's line inside a segment file.
type segRef struct {
	Segment string `json:"seg"`
	Offset  int64  `json:"off"`
	Length  int64  `json:"len"`
}

// indexFile is the on-disk index of sealed cells, replaced atomically by
// every seal.
type indexFile struct {
	Version int               `json:"version"`
	LastSeq int               `json:"last_seq"`
	Entries map[string]segRef `json:"entries"`
}

// openSeg is one unsealed segment: its descriptor and how much of the
// file is accepted lines.
type openSeg struct {
	seq  int
	name string
	f    segFile
	size int64
}

func segName(prefix string, seq int) string { return fmt.Sprintf("%s%06d.jsonl", prefix, seq) }

// segmentPath places a file of the segment tier by its name: open-* under
// cells/, anything else under segments/.
func (s *Store) segmentPath(name string) string {
	if strings.HasPrefix(name, openPrefix) {
		return filepath.Join(s.dir, "cells", name)
	}
	return filepath.Join(s.dir, "segments", name)
}

// unsealedLocked returns the unsealed segment of that name, nil if the
// name is a sealed one's (or none); the caller holds s.mu.
func (s *Store) unsealedLocked(name string) *openSeg {
	for _, seg := range s.unsealed {
		if seg.name == name {
			return seg
		}
	}
	return nil
}

// newSegmentLocked starts a fresh unsealed segment; the caller holds
// s.mu. O_APPEND keeps every write at the end of the file, also after a
// failed one was truncated away.
func (s *Store) newSegmentLocked() error {
	name := segName(openPrefix, s.seq+1)
	f, err := s.ops.open(s.segmentPath(name), os.O_CREATE|os.O_EXCL|os.O_RDWR|os.O_APPEND)
	if err != nil {
		return fmt.Errorf("campaign: creating segment: %w", err)
	}
	s.seq++
	s.unsealed = append(s.unsealed, &openSeg{seq: s.seq, name: name, f: f})
	return nil
}

// readSealed reads one line out of a segment nobody holds open.
func (s *Store) readSealed(ref segRef) ([]byte, error) {
	f, err := s.ops.open(s.segmentPath(ref.Segment), os.O_RDONLY)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, ref.Length)
	_, err = f.ReadAt(data, ref.Offset)
	return data, err
}

// CompactStats reports what one seal did.
type CompactStats struct {
	// Compacted cells became index-durable: their segment is fsynced and
	// sealed, and index.json covers them.
	Compacted int
	// Segment is the last file the pass sealed, "" if nothing to do.
	Segment string
}

// Compact seals the store: every cell accepted so far is fsynced, its
// segment moved under segments/ and index.json republished, in the order
// the comment at the top of this file explains. It is safe to run while
// the store keeps accepting Put and Get calls (a coordinator under live
// report traffic): the lock is held to detach the segments and to update
// the index, never across the fsync or the publish. A segment that could
// not be sealed stays unsealed and keeps answering.
func (s *Store) Compact() (CompactStats, error) {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.mu.Lock()
	s.sealing = len(s.unsealed)
	segs := s.unsealed[:s.sealing]
	s.mu.Unlock()
	var stats CompactStats
	var err error
	sealed := make(map[string]string, len(segs)) // open name -> sealed name
	for _, seg := range segs {
		// Durable before it is named sealed, named sealed before the
		// index points into it.
		to := segName(segPrefix, seg.seq)
		if err = seg.f.Sync(); err == nil {
			err = s.ops.rename(s.segmentPath(seg.name), s.segmentPath(to))
		}
		if err != nil {
			err = fmt.Errorf("campaign: sealing segment %s: %w", seg.name, err)
			break
		}
		sealed[seg.name], stats.Segment = to, to
	}
	s.mu.Lock()
	s.sealing = 0
	if len(sealed) == 0 {
		s.mu.Unlock()
		return stats, err
	}
	index := indexFile{Version: indexVersion, Entries: make(map[string]segRef, len(s.idx))}
	for key, ref := range s.idx {
		if to, ok := sealed[ref.Segment]; ok {
			ref.Segment = to
			s.idx[key] = ref
			stats.Compacted++
		}
		if strings.HasPrefix(ref.Segment, segPrefix) {
			index.Entries[key] = ref
		}
	}
	for _, seg := range segs[:len(sealed)] {
		seg.f.Close() // synced above; nothing is buffered
		s.sealedSeq = seg.seq
	}
	s.unsealed = s.unsealed[len(sealed):]
	s.stats.Seals++
	index.LastSeq = s.sealedSeq
	s.mu.Unlock()
	// A failed publish loses nothing: the segments are sealed, the memory
	// index serves them, and Open scans what index.json does not cover.
	if perr := s.publishIndex(index); err == nil {
		err = perr
	}
	if err != nil {
		return CompactStats{}, err
	}
	return stats, nil
}

// publishIndex replaces index.json, outside the lock: index.Entries is
// the caller's own copy.
func (s *Store) publishIndex(index indexFile) error {
	blob, err := json.Marshal(index)
	if err == nil {
		err = s.writeAtomic(s.segmentPath("index.json"), append(blob, '\n'))
	}
	if err != nil {
		return fmt.Errorf("campaign: writing segment index: %w", err)
	}
	return nil
}

var errClosed = errors.New("campaign: store is closed")

// Close seals the store and releases its descriptors: the clean end of
// the process that wrote it. Get keeps answering, by path; a later Put
// is an error.
func (s *Store) Close() error {
	_, err := s.Compact()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.unsealed { // left only by a failed seal
		seg.f.Close()
	}
	s.unsealed = nil
	if s.err == nil {
		s.err = errClosed
	}
	return err
}

// CompactedLen counts the sealed cells (tests and progress endpoints).
func (s *Store) CompactedLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, ref := range s.idx {
		if strings.HasPrefix(ref.Segment, segPrefix) {
			n++
		}
	}
	return n
}

// lineKey is the scan's cheap parse: a cell line opens with
// {"version":N,"key":"<64 hex>" and closes with }\n. Nothing else is
// indexed; what follows the key is Get's to check, not the scan's.
func lineKey(line []byte) (string, bool) {
	const tag = `,"key":"`
	if !bytes.HasPrefix(line, []byte(`{"version":`)) || !bytes.HasSuffix(line, []byte("}\n")) {
		return "", false
	}
	i := bytes.Index(line[:min(len(line), 40)], []byte(tag)) + len(tag)
	if i < len(tag) || len(line) < i+65 || line[i+64] != '"' {
		return "", false
	}
	key := string(line[i : i+64])
	return key, validKey(key)
}

// scan indexes the complete cell lines of one segment file (a later line
// wins over an earlier one, here or in an older file) and returns the
// file's size and where its last complete line ends — short of the size
// exactly when the tail is torn.
func (s *Store) scan(name string) (size, end int64, err error) {
	f, err := os.Open(s.segmentPath(name))
	if err != nil {
		return 0, 0, fmt.Errorf("campaign: scanning segment: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	skipped := 0
	for {
		line, err := br.ReadBytes('\n')
		size += int64(len(line))
		if err == io.EOF {
			break
		} else if err != nil {
			return 0, 0, fmt.Errorf("campaign: scanning segment %s: %w", name, err)
		}
		if key, ok := lineKey(line); ok {
			s.idx[key] = segRef{Segment: name, Offset: end, Length: int64(len(line))}
			s.stats.LinesRecovered++
		} else {
			skipped++
		}
		end = size
	}
	if skipped > 0 {
		s.warn("campaign: store %s: %d unreadable lines in %s; those cells will be re-run", s.dir, skipped, name)
	}
	return size, end, nil
}

// listSegments returns sub's well-formed segment files: their numbers,
// ascending, and their sizes by name.
func (s *Store) listSegments(sub, prefix string) ([]int, map[string]int64, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, sub))
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: listing store: %w", err)
	}
	var seqs []int
	sizes := make(map[string]int64)
	for _, e := range entries {
		var seq int
		info, ierr := e.Info()
		// Only the names segName prints: the index may name no other
		// file, and nothing else is ever opened.
		if _, err := fmt.Sscanf(e.Name(), prefix+"%d.jsonl", &seq); err == nil && seq > 0 &&
			segName(prefix, seq) == e.Name() && ierr == nil && info.Mode().IsRegular() {
			seqs = append(seqs, seq)
			sizes[e.Name()] = info.Size()
		}
	}
	sort.Ints(seqs)
	return seqs, sizes, nil
}

// recoverSegments rebuilds the in-memory state at Open from what is on
// disk: index.json if it is sound, a scan of every sealed segment it does
// not cover, and a scan of every unsealed segment, cutting a torn tail.
func (s *Store) recoverSegments() error {
	sealed, sizes, err := s.listSegments("segments", segPrefix)
	if err != nil {
		return err
	}
	var index indexFile
	stale := false
	if data, err := os.ReadFile(s.segmentPath("index.json")); err == nil {
		if err = json.Unmarshal(data, &index); err == nil && index.Version != indexVersion {
			err = fmt.Errorf("index version %d, this binary speaks %d", index.Version, indexVersion)
		}
		if err != nil {
			s.warn("campaign: store %s: corrupt segment index (%v); rebuilding it from the segments", s.dir, err)
			index, stale = indexFile{}, true
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("campaign: reading segment index: %w", err)
	}
	// An entry is trusted only if it lies inside a segment file that is
	// there: bytes on disk must not size an allocation or name a path.
	for key, ref := range index.Entries {
		if size, ok := sizes[ref.Segment]; ok && validKey(key) && ref.Offset >= 0 && ref.Length > 0 &&
			ref.Offset <= size && ref.Length <= size-ref.Offset {
			s.idx[key] = ref
		}
	}
	if bad := len(index.Entries) - len(s.idx); bad > 0 {
		s.warn("campaign: store %s: dropped %d index entries that point outside their segment; those cells will be re-run", s.dir, bad)
	}
	// last_seq is published after the segment it names was sealed, so it
	// cannot honestly exceed the newest one.
	if n := len(sealed); n > 0 {
		s.sealedSeq = min(max(index.LastSeq, 0), sealed[n-1])
	}
	for _, seq := range sealed {
		if s.seq = seq; seq > s.sealedSeq {
			if _, _, err := s.scan(segName(segPrefix, seq)); err != nil {
				return err
			}
			s.sealedSeq, stale = seq, true
		}
	}
	if stale {
		if err := s.publishIndex(indexFile{Version: indexVersion, LastSeq: s.sealedSeq, Entries: s.idx}); err != nil {
			return err
		}
	}

	unsealed, _, err := s.listSegments("cells", openPrefix)
	if err != nil {
		return err
	}
	for _, seq := range unsealed {
		name := segName(openPrefix, seq)
		if seq <= s.seq {
			// Its number is taken (only a hand-assembled store gets
			// here): sealing it must not replace another segment.
			s.seq++
			to := segName(openPrefix, s.seq)
			if err := s.ops.rename(s.segmentPath(name), s.segmentPath(to)); err != nil {
				return fmt.Errorf("campaign: renumbering segment %s: %w", name, err)
			}
			seq, name = s.seq, to
		}
		s.seq = seq
		size, end, err := s.scan(name)
		if err != nil {
			return err
		}
		f, err := s.ops.open(s.segmentPath(name), os.O_RDWR|os.O_APPEND)
		if err == nil && end < size {
			s.warn("campaign: store %s: %s ends in a torn line (%d bytes); cut off", s.dir, name, size-end)
			s.stats.TornTails++
			if err = f.Truncate(end); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return fmt.Errorf("campaign: recovering segment %s: %w", name, err)
		}
		s.unsealed = append(s.unsealed, &openSeg{seq: seq, name: name, f: f, size: end})
	}
	return nil
}
