package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"

	"optsync"
)

// lakeCorpusHorizon is the simulated duration of the lake-query corpus:
// the lake-record spec run four times as long.
const lakeCorpusHorizon = 400

// prunedQueries is how many narrow (time window x node) queries one
// analysis session asks.
const prunedQueries = 8

// lakeQueryWorkload is the read side of the trace pipeline: one op is an
// analysis session over a corpus recorded during set-up, with the
// simulator idle.
type lakeQueryWorkload struct {
	seed   int64
	path   string
	events uint64
	// liveSkew and liveMsgs are the aggregates the collectors folded
	// while the corpus was being recorded; a replay must reproduce them.
	liveSkew, liveMsgs []optsync.Stat
}

func (w *lakeQueryWorkload) setup(dir string, seed int64) error {
	w.seed = seed
	w.path = filepath.Join(dir, "corpus.lake")
	rec, err := startLakeRecording(w.path)
	if err != nil {
		return err
	}
	spec := lakeSpec(lakeCorpusHorizon)
	spec.Seed = opSeed(seed, warmBase-1)
	if _, err := optsync.Run(context.Background(), spec, rec.options()...); err != nil {
		rec.abandon()
		return err
	}
	if _, err := rec.close(); err != nil {
		return err
	}
	w.events = rec.lake.Events()
	w.liveSkew, w.liveMsgs = rec.skew.Aggregate(), rec.msgs.Aggregate()
	return nil
}

// lakeSession is the record of one analysis session.
type lakeSession struct {
	Events        uint64                `json:"events"`
	Stats         optsync.LakeScanStats `json:"stats"`
	Scanned       uint64                `json:"scanned"`
	Rows          uint64                `json:"rows"`
	PrunedMatched []uint64              `json:"pruned_matched"`
	Replayed      int                   `json:"replayed"`
	Skew          []optsync.Stat        `json:"skew"`
	Msgs          []optsync.Stat        `json:"msgs"`

	// Summed over the pruned queries; not part of the record's identity
	// beyond what the counts above already fix.
	pruned optsync.LakeScanStats
}

func (w *lakeQueryWorkload) op(i int, tr *opTrace) (*opOutput, error) {
	s, err := runLakeSession(w.path, opSeed(w.seed, i), tr)
	if err != nil {
		return nil, err
	}
	record, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	record = append(record, '\n')
	tr.count("probe.events", float64(s.Replayed))
	tr.count("tracelake.blocks_total", float64(s.pruned.BlocksTotal))
	tr.count("tracelake.blocks_pruned", float64(s.pruned.BlocksPruned))
	tr.count("tracelake.rows_decoded", float64(s.pruned.RowsDecoded))
	tr.count("tracelake.rows_matched", float64(s.pruned.EventsMatched))
	return &opOutput{
		record: record,
		stored: int64(len(record)),
		counts: map[string]float64{
			"probe.events":  float64(s.Replayed),
			"blocks_pruned": float64(s.pruned.BlocksPruned),
		},
		finish: func(*opOutput) error { return s.check(w.events, w.liveSkew, w.liveMsgs) },
	}, nil
}

// runLakeSession is one analysis session: open, footer-only stats, an
// ordered scan of everything, a block scan of everything, a handful of
// narrow queries drawn from the seed, a replay into fresh collectors,
// close.
func runLakeSession(path string, seed int64, tr *opTrace) (*lakeSession, error) {
	s := &lakeSession{}
	var l *optsync.Lake
	err := tr.stage("tracelake.open", func() (err error) {
		l, err = optsync.OpenLake(path)
		return err
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			l.Close()
		}
	}()
	s.Events = l.Events()

	all := optsync.LakeQuery{}
	if err := tr.stage("tracelake.stats", func() (err error) {
		s.Stats, err = l.Stats(all)
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.stage("tracelake.scan", func() error {
		_, err := l.Scan(all, func(optsync.Event) error { s.Scanned++; return nil })
		return err
	}); err != nil {
		return nil, err
	}
	if err := tr.stage("tracelake.scanrows", func() error {
		_, err := l.ScanRows(all, func(r *optsync.LakeRows) error { s.Rows += uint64(r.Len()); return nil })
		return err
	}); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	n := int32(lakeSpec(0).Params.N)
	for q := 0; q < prunedQueries; q++ {
		t := rng.Float64() * (lakeCorpusHorizon - 10)
		query := all.WithTimeRange(t, t+10).WithNode(rng.Int31n(n))
		if err := tr.stage("tracelake.pruned_query", func() error {
			matched := uint64(0)
			st, err := l.Scan(query, func(optsync.Event) error { matched++; return nil })
			s.PrunedMatched = append(s.PrunedMatched, matched)
			s.pruned.BlocksTotal += st.BlocksTotal
			s.pruned.BlocksPruned += st.BlocksPruned
			s.pruned.RowsDecoded += st.RowsDecoded
			s.pruned.EventsMatched += st.EventsMatched
			return err
		}); err != nil {
			return nil, err
		}
	}

	skew, msgs := optsync.NewSkewCollector(), optsync.NewMsgCollector()
	if err := tr.stage("tracelake.replay", func() (err error) {
		s.Replayed, err = l.Replay(all, skew, msgs)
		return err
	}); err != nil {
		return nil, err
	}
	s.Skew, s.Msgs = skew.Aggregate(), msgs.Aggregate()
	closed = true
	return s, tr.stage("tracelake.close", l.Close)
}

// check verifies a session against the corpus it ran over.
func (s *lakeSession) check(events uint64, liveSkew, liveMsgs []optsync.Stat) error {
	for _, c := range []struct {
		what string
		got  uint64
	}{
		{"footer count", s.Events},
		{"Stats count", s.Stats.EventsMatched},
		{"Scan count", s.Scanned},
		{"ScanRows count", s.Rows},
		{"Replay count", uint64(s.Replayed)},
	} {
		if c.got != events {
			return fmt.Errorf("%s is %d events, the recording wrote %d", c.what, c.got, events)
		}
	}
	if s.Stats.BlocksScanned != 0 {
		return fmt.Errorf("whole-lake Stats decoded %d blocks, want a footer-only answer", s.Stats.BlocksScanned)
	}
	if !reflect.DeepEqual(s.Skew, liveSkew) {
		return fmt.Errorf("replayed skew aggregate %v differs from the live collector's %v", s.Skew, liveSkew)
	}
	if !reflect.DeepEqual(s.Msgs, liveMsgs) {
		return fmt.Errorf("replayed message aggregate %v differs from the live collector's %v", s.Msgs, liveMsgs)
	}
	if s.pruned.BlocksPruned == 0 {
		return fmt.Errorf("%d narrow queries pruned no block", prunedQueries)
	}
	return nil
}
