package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// A workload is one named load shape. Every workload is a closed loop
// with one client: op i+1 starts when op i has returned. Op i is derived
// from the run's seed alone (Spec.Seed = seed*10000 + i), so two runs with
// the same seed execute the same operations on any commit.
type workload interface {
	// setup prepares what the ops need inside dir — a lake corpus, a
	// campaign description — and runs the workload's one-off checks.
	setup(dir string, seed int64) error
	// op executes operation i. tr is nil for untraced ops. The returned
	// output's finish, if set, runs after the clock has stopped.
	op(i int, tr *opTrace) (*opOutput, error)
}

// opOutput is what one op produced.
type opOutput struct {
	// record is the op's result record — what the JSON sink writes for a
	// Run, the report for a campaign, the session summary for a lake
	// query. It feeds sim_digest, and a rerun with the same seed must
	// reproduce it byte for byte.
	record []byte
	// stored is the bytes the op left behind: its record plus any lake
	// file or store directory.
	stored int64
	// counts are quantities that must repeat exactly for equal seeds
	// (messages sent, events recorded, bytes per event).
	counts map[string]float64
	// finish verifies the op's outputs and removes its files, outside
	// the timed interval. It may update stored.
	finish func(*opOutput) error
}

// opSeed derives the simulation seed of op i. Warm-up ops use indices
// from warmBase up, far above any timed op's.
func opSeed(seed int64, i int) int64 { return seed*10000 + int64(i) }

const warmBase = 9000

type runConfig struct {
	seed    int64
	seconds float64
	// minOps is run even if seconds has already passed.
	minOps int
	// warmups is the number of untimed ops at the end of each set-up.
	warmups int
	// setupRepeats is how many times set-up is executed; setup_s is the
	// median.
	setupRepeats int
	// tmpRoot is where per-run temporary directories are made.
	tmpRoot string
}

func defaultRunConfig(seed int64, seconds float64, tmpRoot string) runConfig {
	return runConfig{
		seed: seed, seconds: seconds, minOps: 8,
		warmups: 5, setupRepeats: 5, tmpRoot: tmpRoot,
	}
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Ops       int               `json:"ops"`
	OpsFailed int               `json:"ops_failed"`
	SimDigest string            `json:"sim_digest"`
	Correct   bool              `json:"correct"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// OpMs is the distribution of the timed ops' wall times behind
	// op_ms_p50 (untraced runs only).
	OpMs *distribution `json:"op_ms,omitempty"`
}

// distribution summarizes a sample.
type distribution struct {
	N   int     `json:"n"`
	Min float64 `json:"min"`
	P10 float64 `json:"p10"`
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	Max float64 `json:"max"`
}

func summarize(vals []float64) *distribution {
	return &distribution{
		N: len(vals), Min: quantile(vals, 0), P10: quantile(vals, 0.1),
		P50: quantile(vals, 0.5), P90: quantile(vals, 0.9), Max: quantile(vals, 1),
	}
}

func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// prepared is a workload after set-up, with its temporary directory.
type prepared struct {
	w   workload
	dir string
}

func (p *prepared) close() {
	if p != nil && p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// prepare runs one complete set-up: temporary directory, workload
// set-up, warm-up ops.
func prepare(name string, cfg runConfig) (*prepared, error) {
	w, err := newWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.tmpRoot, 0o755); err != nil {
		return nil, err
	}
	spreadSubdirs(cfg.tmpRoot)
	dir, err := os.MkdirTemp(cfg.tmpRoot, "tmp-"+name+"-")
	if err != nil {
		return nil, err
	}
	spreadSubdirs(dir)
	p := &prepared{w: w, dir: dir}
	if err := p.w.setup(dir, cfg.seed); err != nil {
		p.close()
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	for j := 0; j < cfg.warmups; j++ {
		if _, err := runOp(p.w, warmBase+j, nil); err != nil {
			p.close()
			return nil, fmt.Errorf("%s: warm-up op %d: %w", name, j, err)
		}
	}
	return p, nil
}

// finishOp runs an op's finish step and drops it: the closure holds the
// op's whole outcome (reports, writers, buffers), which must not stay
// reachable from the samples for the rest of the run.
func finishOp(out *opOutput) error {
	finish := out.finish
	out.finish = nil
	if finish == nil {
		return nil
	}
	return finish(out)
}

// runOp executes one op and its finish step.
func runOp(w workload, i int, tr *opTrace) (*opOutput, error) {
	out, err := w.op(i, tr)
	if err != nil {
		return nil, err
	}
	if err := finishOp(out); err != nil {
		return nil, err
	}
	return out, nil
}

// opSample is the measurement of one op.
type opSample struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
	out   *opOutput
}

// timeOp runs op i with the clock, CPU and allocation counters read
// around the op itself; finish runs after they stop.
func timeOp(w workload, i int, tr *opTrace) (opSample, error) {
	var s opSample
	a0 := heapAllocated()
	c0 := cpuTime()
	t0 := time.Now()
	if tr != nil {
		tr.start = t0
	}
	out, err := w.op(i, tr)
	t1 := time.Now()
	s.wall = t1.Sub(t0)
	s.cpu = cpuTime() - c0
	s.alloc = heapAllocated() - a0
	if tr != nil {
		tr.end, tr.cpu = t1, s.cpu
	}
	if err != nil {
		return s, err
	}
	if err := finishOp(out); err != nil {
		return s, err
	}
	s.out = out
	return s, nil
}

// attempt times op i and books it: a failed op is counted, reported, and
// missing from the samples.
func (r *runResult) attempt(w workload, i int, tr *opTrace, samples *[]opSample) *opSample {
	s, err := timeOp(w, i, tr)
	r.Ops++
	if err != nil {
		r.OpsFailed++
		r.fail("op %d: %v", i, err)
		return nil
	}
	*samples = append(*samples, s)
	return &s
}

// running reports whether a timed phase should run op i: until the
// deadline, and for at least minOps ops.
func running(i, minOps int, deadline time.Time) bool {
	return i < minOps || time.Now().Before(deadline)
}

func deadlineIn(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

func wallMs(samples []opSample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(s.wall) / 1e6
	}
	return out
}

// checkRepeat reruns op i and requires the same record and the same
// exact-repeat counts as the first execution produced.
func checkRepeat(w workload, i int, first *opOutput, res *runResult) {
	again, err := runOp(w, i, nil)
	if err != nil {
		res.fail("rerun of op %d: %v", i, err)
		return
	}
	if !bytes.Equal(again.record, first.record) {
		res.fail("rerun of op %d produced a different record", i)
	}
	for k, v := range first.counts {
		if again.counts[k] != v {
			res.fail("rerun of op %d: count %s = %v, was %v", i, k, again.counts[k], v)
		}
	}
}

// measure is the untraced run behind the end-to-end metrics.
func measure(name string, cfg runConfig) (*runResult, error) {
	res := &runResult{Workload: name, Seed: cfg.seed, Correct: true, Metrics: make(map[string]metric)}

	// Set-up is executed setupRepeats times and reported as the median, so
	// that one slow temp-dir creation or page-cache miss does not decide
	// setup_s. The last set-up is the one the timed ops run against.
	var setups []float64
	var p *prepared
	for r := 0; r < cfg.setupRepeats; r++ {
		p.close()
		t0 := time.Now()
		var err error
		if p, err = prepare(name, cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.close()

	runtime.GC()
	var samples []opSample
	for i, deadline := 0, deadlineIn(cfg.seconds); running(i, cfg.minOps, deadline); i++ {
		res.attempt(p.w, i, nil, &samples)
	}
	if len(samples) == 0 {
		return res, nil
	}
	checkRepeat(p.w, 0, samples[0].out, res)

	digest := sha256.New()
	var cpu time.Duration
	var alloc uint64
	var stored int64
	for i, s := range samples {
		cpu += s.cpu
		alloc += s.alloc
		stored += s.out.stored
		// Every run executes at least minOps ops whatever the host's
		// speed; digesting those makes sim_digest a function of the seed
		// and the code alone.
		if i < cfg.minOps {
			digest.Write(s.out.record)
		}
	}
	n := float64(len(samples))
	res.SimDigest = hex.EncodeToString(digest.Sum(nil))
	res.OpMs = summarize(wallMs(samples))
	values := map[string]float64{
		"setup_s":          median(setups),
		"op_ms_p50":        res.OpMs.P50,
		"cpu_ms_per_op":    float64(cpu) / 1e6 / n,
		"alloc_mb_per_op":  float64(alloc) / 1e6 / n,
		"peak_rss_mb":      float64(peakRSS()) / 1e6,
		"stored_kb_per_op": float64(stored) / 1e3 / n,
	}
	for _, u := range endToEndUnits {
		res.Metrics[u.name] = metric{values[u.name], u.unit}
	}
	return res, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
