package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"

	"optsync"
)

// workloads names each workload of BENCHMARK.json, in its order, with its
// constructor.
var workloads = []struct {
	name string
	make func() workload
}{
	{"mesh25-auth", func() workload { return &runWorkload{spec: mesh25Auth, minRounds: 199} }},
	{"mesh256-prim", func() workload { return &runWorkload{spec: mesh256Prim, minRounds: 7} }},
	{"ring2048-auth", func() workload { return &runWorkload{spec: ring2048Auth, minRounds: 5, sharded: true} }},
	{"campaign-fabric", func() workload { return &campaignWorkload{} }},
	{"lake-record", func() workload { return &runWorkload{spec: lakeSpec(100), minRounds: 99, lake: true} }},
	{"lake-query", func() workload { return &lakeQueryWorkload{} }},
}

func newWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w.make(), nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// lanParams is the operating point every workload shares: a LAN with
// drift 1e-4, delays in [2 ms, 10 ms], a 1 s resynchronization period and
// 5 ms initial skew.
func lanParams(n, f int, v optsync.Variant) optsync.Params {
	return optsync.Params{
		N: n, F: f, Variant: v,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period: 1.0, InitialSkew: 0.005,
	}.WithDefaults()
}

// mesh25Auth is the signed regime at optimal resilience: the first thing
// a user runs.
var mesh25Auth = optsync.Spec{
	Algo: optsync.AlgoAuth, Params: lanParams(25, 12, optsync.Auth),
	FaultyCount: 12, Attack: optsync.AttackSilent, Horizon: 200,
}

// mesh256Prim is the unsigned regime: no signatures at all, scalar
// ready messages through the inline broadcast path.
var mesh256Prim = optsync.Spec{
	Algo: optsync.AlgoPrim, Params: lanParams(256, 85, optsync.Primitive),
	FaultyCount: 85, Attack: optsync.AttackSilent, Horizon: 8,
}

// ring2048Auth is the repository's L1 scale spec: large n on a sparse
// ring, auto-sharded.
var ring2048Auth = optsync.Spec{
	Algo: optsync.AlgoAuth, Params: lanParams(2048, 3, optsync.Auth),
	Attack: optsync.AttackNone, Topology: "ring:8", Horizon: 6,
}

// lakeSpec is the run the two lake workloads record.
func lakeSpec(horizon float64) optsync.Spec {
	return optsync.Spec{
		Algo: optsync.AlgoAuth, Params: lanParams(32, 15, optsync.Auth),
		FaultyCount: 15, Attack: optsync.AttackSilent, Horizon: horizon,
	}
}

// runWorkload is one optsync.Run per op.
type runWorkload struct {
	spec      optsync.Spec
	minRounds int
	// sharded marks the spec as running on the parallel engine when the
	// machine has the cores: its warm-up compares Shards:1 with auto.
	sharded bool
	// lake records the run into a trace lake file with live collectors.
	lake bool

	dir  string
	seed int64
}

func (w *runWorkload) setup(dir string, seed int64) error {
	w.dir, w.seed = dir, seed
	if !w.sharded {
		return nil
	}
	// Bit-exactness is the repository's contract: the serial engine and
	// the auto-picked shard count must produce the same record.
	auto, err := w.run(warmBase, nil, 0)
	if err != nil {
		return err
	}
	serial, err := w.run(warmBase, nil, 1)
	if err != nil {
		return err
	}
	if !bytes.Equal(auto.record, serial.record) {
		return fmt.Errorf("Shards:1 and auto-shards records differ:\n%s%s", serial.record, auto.record)
	}
	return nil
}

func (w *runWorkload) op(i int, tr *opTrace) (*opOutput, error) {
	return w.run(i, tr, w.spec.Shards)
}

func (w *runWorkload) run(i int, tr *opTrace, shards int) (*opOutput, error) {
	spec := w.spec
	spec.Seed = opSeed(w.seed, i)
	spec.Shards = shards
	if tr != nil {
		spec.Algo = tracedAlgo(spec.Algo)
		tr.parallel = w.sharded
		currentTrace.Store(tr)
		defer currentTrace.Store(nil)
	}

	var record bytes.Buffer
	opts := []optsync.Option{optsync.WithSink(optsync.NewJSONSink(&record))}
	var rec *lakeRecording
	if w.lake && !(tr != nil && tr.withoutLake) {
		var err error
		if rec, err = startLakeRecording(filepath.Join(w.dir, fmt.Sprintf("op-%d.lake", i))); err != nil {
			return nil, err
		}
		opts = append(opts, rec.options()...)
	}
	res, err := optsync.Run(context.Background(), spec, opts...)
	if err != nil {
		if rec != nil {
			rec.abandon()
		}
		return nil, err
	}
	out := &opOutput{
		counts: map[string]float64{
			"network.msgs": float64(res.TotalMsgs),
			"delivered":    float64(res.Delivered),
			"pulses":       float64(res.PulseCount),
		},
	}
	if rec != nil {
		size, err := rec.close()
		if err != nil {
			return nil, err
		}
		out.stored = size
		out.counts["probe.events"] = float64(rec.lake.Events())
		out.counts["tracelake.bytes_per_event"] = float64(size) / float64(rec.lake.Events())
	}
	rec0 := record.Bytes()
	if tr != nil {
		// A traced run differs from an untraced one in its algorithm name
		// alone; undo that so records compare byte for byte.
		rec0 = bytes.Replace(rec0, []byte(tracedPrefix), nil, 1)
	}
	tr.count("network.msgs", float64(res.TotalMsgs))
	tr.count("network.delivered", float64(res.Delivered))
	if rec != nil {
		tr.count("probe.events", float64(rec.lake.Events()))
	}
	out.record = rec0
	out.stored += int64(len(rec0))
	out.finish = func(*opOutput) error {
		if rec != nil {
			if err := rec.verify(res); err != nil {
				return err
			}
		}
		if !res.WithinSkew {
			return fmt.Errorf("max skew %g exceeds the bound %g", res.MaxSkew, res.SkewBound)
		}
		if res.CompleteRounds < w.minRounds {
			return fmt.Errorf("%d complete rounds, want at least %d", res.CompleteRounds, w.minRounds)
		}
		return nil
	}
	return out, nil
}

// lakeRecording is a run being recorded: a lake writer over a buffered
// file plus the two live collectors a replay must reproduce.
type lakeRecording struct {
	path string
	f    *os.File
	bw   *bufio.Writer
	lake *optsync.LakeWriter
	skew *optsync.SkewStats
	msgs *optsync.MsgStats
}

func startLakeRecording(path string) (*lakeRecording, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	r := &lakeRecording{path: path, f: f, bw: bufio.NewWriter(f)}
	r.lake = optsync.NewLakeWriter(r.bw)
	r.skew = optsync.NewSkewCollector()
	r.msgs = optsync.NewMsgCollector()
	return r, nil
}

func (r *lakeRecording) options() []optsync.Option {
	return []optsync.Option{
		optsync.WithLakeTrace(r.lake),
		optsync.WithCollector(r.skew),
		optsync.WithCollector(r.msgs),
	}
}

// close flushes and closes the file (Run has already finalized the lake
// container) and returns the file's size.
func (r *lakeRecording) close() (int64, error) {
	if err := r.bw.Flush(); err != nil {
		r.f.Close()
		return 0, err
	}
	if err := r.f.Close(); err != nil {
		return 0, err
	}
	info, err := os.Stat(r.path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (r *lakeRecording) abandon() {
	r.f.Close()
	os.Remove(r.path)
}

// verify reopens the recorded lake, checks it against the run that wrote
// it, and removes the file.
func (r *lakeRecording) verify(res optsync.Result) error {
	defer os.Remove(r.path)
	l, err := optsync.OpenLake(r.path)
	if err != nil {
		return err
	}
	defer l.Close()
	if l.Events() != r.lake.Events() {
		return fmt.Errorf("lake holds %d events, the writer recorded %d", l.Events(), r.lake.Events())
	}
	if r.msgs.Sent() != res.TotalMsgs || r.msgs.Delivered() != res.Delivered {
		return fmt.Errorf("live message collector saw %d sent / %d delivered, the result says %d / %d",
			r.msgs.Sent(), r.msgs.Delivered(), res.TotalMsgs, res.Delivered)
	}
	if r.skew.Max() != res.MaxSkew {
		return fmt.Errorf("live skew collector max %g, the result says %g", r.skew.Max(), res.MaxSkew)
	}
	return nil
}
