package optsync

import "optsync/internal/probe"

// Option configures Run and RunBatch. Options replace the old pattern of
// threading every knob through a growing Spec struct: runner concerns
// (parallelism, replication, observation, output) stay out of the
// experiment description.
type Option func(*config)

// ProgressEvent reports one finished run inside a batch.
type ProgressEvent struct {
	// Completed runs so far and the batch Total (after seed expansion).
	Completed, Total int
	// Index of the finished run in the expanded batch; completion order
	// is not index order when workers > 1.
	Index int
	// Result of that run.
	Result Result
}

// probeReg is one probe registration: the probe plus its subscription.
type probeReg struct {
	p     probe.Probe
	types []probe.Type
}

// flusher is the finalization contract shared by trace sinks: row trace
// writers and lake writers both buffer, and both report their first I/O
// error from Flush. Run/RunBatch flush every registered sink before
// returning.
type flusher interface{ Flush() error }

type config struct {
	workers  int
	seeds    int
	progress func(ProgressEvent)
	sinks    []Sink
	specOpts []func(*Spec)
	probes   []probeReg
	traces   []flusher
}

func newConfig(opts []Option) *config {
	cfg := &config{seeds: 1}
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}

func (c *config) applySpec(spec *Spec) {
	for _, fn := range c.specOpts {
		fn(spec)
	}
}

func (c *config) emit(res Result) error {
	for _, s := range c.sinks {
		if err := s.Write(res); err != nil {
			return err
		}
	}
	return nil
}

func (c *config) flushSinks() error {
	var first error
	for _, s := range c.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	for _, t := range c.traces {
		if err := t.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// synchronizedProbes wraps every registered probe once (one mutex per
// probe for the whole batch), so a single probe can observe all runs of
// a batch with serialized calls.
func (c *config) synchronizedProbes() []probeReg {
	out := make([]probeReg, len(c.probes))
	for i, r := range c.probes {
		out[i] = probeReg{p: probe.Synchronized(r.p), types: r.types}
	}
	return out
}

// WithWorkers bounds the batch worker pool. n <= 0 (and the default)
// means the package default (SetDefaultWorkers, else GOMAXPROCS).
func WithWorkers(n int) Option {
	return func(c *config) { c.workers = n }
}

// WithSeeds replicates each spec k times with consecutive seeds
// (Seed, Seed+1, ..., Seed+k-1) — the standard way to average a scenario
// table cell over independent randomness. k < 1 is treated as 1.
func WithSeeds(k int) Option {
	if k < 1 {
		k = 1
	}
	return func(c *config) { c.seeds = k }
}

// WithProgress installs a callback invoked after each finished run.
//
// Concurrency contract: whatever WithWorkers says, calls are serialized
// under the batch lock and happen-before RunBatch returns — the callback
// may touch shared state without its own locking (a -race test pins
// this). Completion order is not input order when workers > 1. It must
// not block: every worker's result delivery waits on the same lock.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(c *config) { c.progress = fn }
}

// WithSink streams results to s in input order, independent of worker
// scheduling. Sinks are flushed before Run/RunBatch returns. May be
// given multiple times.
//
// Concurrency contract: Sink.Write and Sink.Flush are always invoked
// serially (under the batch lock, in input order) and happen-before
// RunBatch returns, so sinks need no locking of their own even with
// WithWorkers(n > 1).
func WithSink(s Sink) Option {
	return func(c *config) { c.sinks = append(c.sinks, s) }
}

// WithProbe subscribes p to the run's typed event stream — every message
// send/delivery/drop, pulse, resync, node boot, partition cut/heal, and
// skew sample, as value events with zero allocation on the hot path. No
// types means every type; pass a subset (e.g. MessageEventTypes()...) to
// keep high-rate events away from a slow probe.
//
// In Run, p observes the single run inline. In RunBatch, the same p
// observes every run of the batch: calls are serialized through a mutex,
// but events from concurrently executing runs interleave — aggregate
// across the batch with a Collector, or key on Event fields. Probes
// observe; they cannot perturb the simulation, and results stay
// byte-identical with any probes installed.
func WithProbe(p Probe, types ...EventType) Option {
	return func(c *config) { c.probes = append(c.probes, probeReg{p: p, types: types}) }
}

// WithCollector subscribes a collector to exactly the event types it
// declares. Read its aggregate after Run/RunBatch returns. Same batch
// semantics as WithProbe (one collector folds the whole batch).
func WithCollector(col Collector) Option {
	return func(c *config) { c.probes = append(c.probes, probeReg{p: col, types: col.Types()}) }
}

// WithTrace records the full event stream to t (see NewTraceWriter).
// The writer is flushed before Run/RunBatch returns — on an error return
// (a cancelled context, a failed sink) too, so the trace holds every
// event up to the abort — and its first I/O error is returned unless the
// run already failed with another. In a batch the trace interleaves events of
// concurrent runs; trace single runs (or WithWorkers(1)) when replay
// must reproduce per-run aggregates.
func WithTrace(t *TraceWriter) Option {
	return func(c *config) {
		c.traces = append(c.traces, t)
		c.probes = append(c.probes, probeReg{p: t})
	}
}

// WithLakeTrace records the full event stream to w as a columnar trace
// lake (see NewLakeWriter) — the queryable container, written live with
// no intermediate row trace. The writer is flushed (finalizing the
// container) before Run/RunBatch returns, error returns included: a
// cancelled run leaves a lake that opens and holds the events up to the
// abort. Its first I/O error is returned unless the run already failed
// with another. The writer encodes and writes full blocks on a goroutine
// of its own, which the flush joins; the file's bytes do not depend on
// that (see NewLakeWriter). Batch caveats match WithTrace: concurrent
// runs interleave in one stream.
func WithLakeTrace(w *LakeWriter) Option {
	return func(c *config) {
		c.traces = append(c.traces, w)
		c.probes = append(c.probes, probeReg{p: w})
	}
}

// WithSeed sets every spec's base seed.
func WithSeed(seed int64) Option {
	return func(c *config) {
		c.specOpts = append(c.specOpts, func(s *Spec) { s.Seed = seed })
	}
}

// WithHorizon sets every spec's simulated duration in seconds.
func WithHorizon(seconds float64) Option {
	return func(c *config) {
		c.specOpts = append(c.specOpts, func(s *Spec) { s.Horizon = seconds })
	}
}

// WithKeepSeries retains the skew time series and pulse log in results.
func WithKeepSeries() Option {
	return func(c *config) {
		c.specOpts = append(c.specOpts, func(s *Spec) { s.KeepSeries = true })
	}
}

// WithTopology sets every spec's network connectivity by registered name
// ("mesh", "wan:4", "ring:6", or a custom RegisterTopology name). The
// empty string restores the default full mesh.
func WithTopology(name string) Option {
	return func(c *config) {
		c.specOpts = append(c.specOpts, func(s *Spec) { s.Topology = name })
	}
}

// WithShards sets every spec's shard-worker count for the parallel
// engine: k > 1 partitions the nodes across k workers that drain events
// in dmin-wide safe windows, k == 1 forces the serial engine, and 0
// (the default) picks automatically (serial below n=1024, up to
// min(GOMAXPROCS, 8) workers above). Results are bit-identical at every
// shard count; negative k fails Spec validation.
func WithShards(k int) Option {
	return func(c *config) {
		c.specOpts = append(c.specOpts, func(s *Spec) { s.Shards = k })
	}
}

// WithPartitions schedules partition/heal churn on every spec, replacing
// any previously set windows.
func WithPartitions(windows ...Partition) Option {
	return func(c *config) {
		c.specOpts = append(c.specOpts, func(s *Spec) { s.Partitions = windows })
	}
}
