// Package optsync is the public, composable experiment API of the
// Srikanth-Toueg "Optimal Clock Synchronization" (PODC 1985)
// reproduction.
//
// It exposes four things:
//
//   - a registry: RegisterProtocol / RegisterAttack make algorithms and
//     faulty-node behaviours pluggable constructors, resolved by name
//     from a Spec. The built-ins (st-auth, st-primitive, cnv, ftm; none,
//     silent, crash-mid, rush, bias, equivocate, selective)
//     self-register.
//   - a functional-options runner: Run executes one deterministic
//     simulation, RunBatch fans independent specs out over a bounded
//     worker pool (each run is single-threaded, so batch speedup is
//     near-linear) with WithWorkers, WithSeeds, WithProgress, and
//     context cancellation.
//   - structured result sinks: Table, CSV, and JSON implementations of
//     the Sink interface stream Results to machine-readable output.
//   - a typed observation stream: WithProbe / WithCollector / WithTrace
//     subscribe probes, bounded-memory streaming collectors, and trace
//     writers to every event of a run (messages, pulses, resyncs, boots,
//     partition churn, skew samples) with zero hot-path allocation;
//     ReplayTrace feeds a recorded trace back through collectors to
//     bit-identical aggregates (see probe.go).
//
// Quick example:
//
//	params := optsync.Params{
//		N: 5, F: 2, Variant: optsync.Auth,
//		Rho:  optsync.Rho(1e-4),
//		DMin: 0.002, DMax: 0.010,
//		Period: 1.0, InitialSkew: 0.005,
//	}.WithDefaults()
//	res, err := optsync.Run(context.Background(), optsync.Spec{
//		Algo: optsync.AlgoAuth, Params: params,
//		FaultyCount: params.F, Attack: optsync.AttackSilent,
//		Seed: 1,
//	})
package optsync

import (
	"context"
	"errors"

	"optsync/internal/adversary"
	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/experiment"
	"optsync/internal/harness"
	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/probe"
)

// The experiment vocabulary, re-exported as aliases so values flow
// between this package and extension code without conversion.
type (
	// Spec fully describes one run; zero fields take sensible defaults.
	Spec = harness.Spec
	// Result aggregates everything measured in one run.
	Result = harness.Result
	// RuntimeStats is Result.Runtime: what the simulator did to produce a
	// result (arena slots, queue chunks, signature checks computed), never
	// written by a Sink.
	RuntimeStats = node.RuntimeStats
	// Algorithm names a registered protocol.
	Algorithm = harness.Algorithm
	// Attack names a registered faulty-node behaviour.
	Attack = harness.Attack
	// Params is the analytic parameterization (n, f, drift, delays, P).
	Params = bounds.Params
	// Variant selects the resilience regime (Auth: n > 2f, Primitive: n > 3f).
	Variant = bounds.Variant
	// Sample is one skew observation of a Result series.
	Sample = probe.Sample
	// Table is a renderable result table (also what scenarios produce).
	Table = harness.Table

	// Protocol is the behaviour of one simulated process.
	Protocol = node.Protocol
	// Env is the world a Protocol acts through (clocks, network, crypto).
	Env = node.Env
	// ID identifies a process.
	ID = node.ID
	// Message is the typed network envelope protocols exchange: a Kind
	// discriminator, inline scalars (Src/Round/Value), and an optional
	// structured Payload. Scalar-only messages cross the simulated
	// network without allocating.
	Message = node.Message
	// Kind discriminates message envelopes; allocate kinds for custom
	// protocols with NewKind.
	Kind = network.Kind
	// PulseRecord logs one accepted resynchronization round at one node.
	PulseRecord = node.PulseRecord

	// Topology decides which directed links exist at any virtual instant;
	// Spec.Topology selects one by registered name ("mesh", "wan:4",
	// "ring:6", or anything added via RegisterTopology).
	Topology = network.Topology
	// TopologyBuilder constructs a Topology from a "name:arg" spec.
	TopologyBuilder = harness.TopologyBuilder
	// Partition is one scheduled partition/heal window of Spec.Partitions.
	Partition = harness.Partition

	// ProtocolBuilder constructs a correct process's protocol for a spec.
	ProtocolBuilder = harness.ProtocolBuilder
	// AttackBuilder constructs a faulty process's protocol for a spec.
	AttackBuilder = harness.AttackBuilder
	// AttackEnv is the per-node wiring handed to an AttackBuilder.
	AttackEnv = harness.AttackEnv
	// ProtocolOption customizes a protocol registration.
	ProtocolOption = harness.ProtocolOption
	// EnvelopeFunc supplies protocol-specific accuracy bounds.
	EnvelopeFunc = harness.EnvelopeFunc
	// Collusion is the shared coordination state of a faulty coalition.
	Collusion = adversary.Collusion
)

// Rho is the hardware drift bound: clock rates stay within
// [1/(1+rho), 1+rho]. optsync.Rho(1e-4) converts from a float.
type Rho = clock.Rho

// Built-in algorithms and attacks.
const (
	AlgoAuth = harness.AlgoAuth // authenticated ST algorithm
	AlgoPrim = harness.AlgoPrim // broadcast-primitive ST algorithm
	AlgoCNV  = harness.AlgoCNV  // interactive convergence baseline
	AlgoFTM  = harness.AlgoFTM  // fault-tolerant midpoint baseline

	AttackNone       = harness.AttackNone
	AttackSilent     = harness.AttackSilent
	AttackCrashMid   = harness.AttackCrashMid
	AttackRush       = harness.AttackRush
	AttackBias       = harness.AttackBias
	AttackEquivocate = harness.AttackEquivocate
	AttackSelective  = harness.AttackSelective

	// Auth and Primitive are the two resilience variants of Params.
	Auth      = bounds.Auth
	Primitive = bounds.Primitive
)

// RegisterProtocol makes an algorithm constructible by name through a
// Spec, alongside the built-ins. Use WithEnvelope to attach
// protocol-specific accuracy bounds. It panics on empty or duplicate
// names — registration belongs in package init.
func RegisterProtocol(name Algorithm, build ProtocolBuilder, opts ...ProtocolOption) {
	harness.RegisterProtocol(name, build, opts...)
}

// RegisterAttack makes a faulty-node behaviour constructible by name
// through a Spec. Same contract as RegisterProtocol.
func RegisterAttack(name Attack, build AttackBuilder) {
	harness.RegisterAttack(name, build)
}

// RegisterTopology makes a connectivity shape constructible by name
// through Spec.Topology, alongside the built-ins ("mesh", "wan:R",
// "ring:D"). Parameterized names use a colon: Spec.Topology "wan:4"
// resolves the builder registered under "wan" with arg "4". Same
// contract as RegisterProtocol.
func RegisterTopology(name string, build TopologyBuilder) {
	harness.RegisterTopology(name, build)
}

// Topologies returns the registered topology names, sorted.
func Topologies() []string { return harness.Topologies() }

// ParsePartition parses one "at:heal:leftSize" partition window (heal 0
// = never heals), the textual form used by the syncsim CLI and the
// campaign "partitions" axis.
func ParsePartition(s string) (Partition, error) { return harness.ParsePartition(s) }

// NewKind registers a message kind for a custom protocol under a
// diagnostic name and returns its id. Call from package init, alongside
// RegisterProtocol.
func NewKind(name string) Kind { return network.NewKind(name) }

// Raw wraps an arbitrary payload in an untyped (KindRaw) envelope — the
// escape hatch for quick experiments; real protocols allocate kinds.
func Raw(payload any) Message { return network.Raw(payload) }

// WithEnvelope attaches accuracy bounds to a protocol registration.
func WithEnvelope(fn EnvelopeFunc) ProtocolOption { return harness.WithEnvelope(fn) }

// Protocols returns the registered algorithm names, sorted.
func Protocols() []Algorithm { return harness.Protocols() }

// Attacks returns the registered attack names, sorted.
func Attacks() []Attack { return harness.Attacks() }

// NewProtocol builds the correct-node protocol for a spec via the
// registry; attack builders that wrap correct behaviour use it.
func NewProtocol(spec Spec) (Protocol, error) { return harness.NewProtocol(spec) }

// Scenario is a registered experiment of the reproduction suite.
type Scenario struct {
	ID    string
	Title string
	exp   experiment.Experiment
}

// Run settles the scenario's simulations and renders its tables.
// WithCampaignWorkers bounds the worker pool, and WithStore lets the
// scenarios that are campaigns (T1, T2, T4, T5, T7, T8, F2, F3, F6, W1,
// W3) resume their cells from a store. The other campaign options do not
// apply.
func (s Scenario) Run(ctx context.Context, opts ...CampaignOption) ([]*Table, error) {
	return s.exp.Run(ctx, newCampaignConfig(opts).opts)
}

// Scenarios returns the full reproduction experiment suite in
// presentation order.
func Scenarios() []Scenario {
	all := experiment.All()
	out := make([]Scenario, len(all))
	for i, e := range all {
		out[i] = Scenario{e.ID, e.Title, e}
	}
	return out
}

// FindScenario returns the scenario with the given id, or false.
func FindScenario(id string) (Scenario, bool) {
	e, ok := experiment.Find(id)
	return Scenario{e.ID, e.Title, e}, ok
}

// NewTable creates a renderable table with the given title and columns.
func NewTable(title string, columns ...string) *Table { return harness.NewTable(title, columns...) }

// F formats a float compactly for table cells.
func F(v float64) string { return harness.F(v) }

// FmtBool renders pass/fail cells ("ok" / "VIOLATED").
func FmtBool(ok bool) string { return harness.FmtBool(ok) }

// Run executes one spec and returns its measurements. Options that only
// make sense for batches (WithWorkers, WithSeeds) are ignored; sink,
// probe, collector, trace, and progress options apply. Results are
// deterministic in the spec alone — probes observe without perturbing.
// Cancelling ctx aborts the simulation and returns ctx.Err().
func Run(ctx context.Context, spec Spec, opts ...Option) (Result, error) {
	cfg := newConfig(opts)
	cfg.applySpec(&spec)
	var attach harness.Observe
	if len(cfg.probes) > 0 {
		attach = func(_ Spec, bus *probe.Bus) {
			for _, r := range cfg.probes {
				bus.Attach(r.p, r.types...)
			}
		}
	}
	res, err := harness.RunObserved(ctx, spec, attach)
	if err != nil {
		// The probes saw events up to the abort: finalize what they wrote
		// (a lake is unreadable without its footer). The run's error wins.
		_ = cfg.flushSinks()
		return Result{}, err
	}
	if err := cfg.emit(res); err != nil {
		// Flush anyway: other sinks may have buffered output the write
		// error did not invalidate.
		_ = cfg.flushSinks()
		return res, err
	}
	if cfg.progress != nil {
		cfg.progress(ProgressEvent{Completed: 1, Total: 1, Index: 0, Result: res})
	}
	return res, cfg.flushSinks()
}

// RunBatch executes independent specs on a bounded worker pool and
// returns the results in input order. Every run is single-threaded and
// deterministic in its spec, so the returned slice — and anything
// streamed to sinks, which always receive results in input order — is
// byte-identical for any worker count.
//
// WithSeeds(k) expands each spec into k runs with consecutive seeds
// (results stay grouped per input spec). The first error cancels the
// remaining runs and is returned. Sinks registered with WithSink are
// flushed before returning.
func RunBatch(ctx context.Context, specs []Spec, opts ...Option) ([]Result, error) {
	cfg := newConfig(opts)

	runs := make([]Spec, 0, len(specs)*cfg.seeds)
	for _, spec := range specs {
		cfg.applySpec(&spec)
		for k := 0; k < cfg.seeds; k++ {
			run := spec
			run.Seed = spec.Seed + int64(k)
			runs = append(runs, run)
		}
	}

	// One probe set observes the whole batch: each probe is wrapped with
	// a single mutex so calls from concurrently executing runs are
	// serialized (events still interleave across runs — that is the
	// documented batch semantics of WithProbe/WithCollector/WithTrace).
	var attach harness.BatchObserve
	if len(cfg.probes) > 0 {
		shared := cfg.synchronizedProbes()
		attach = func(_ int, _ Spec, bus *probe.Bus) {
			for _, r := range shared {
				bus.Attach(r.p, r.types...)
			}
		}
	}

	// Stream to sinks strictly in input order: a finished run is held
	// until every earlier run has been written, so sink output does not
	// depend on scheduling. onResult runs under the batch lock. A sink
	// write error cancels the remaining runs — broken output should not
	// cost the rest of the batch.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		completed int
		emitted   int
		done      = make([]bool, len(runs))
		held      = make([]Result, len(runs))
		sinkErr   error
	)
	onResult := func(i int, res Result) {
		completed++
		if cfg.progress != nil {
			cfg.progress(ProgressEvent{
				Completed: completed, Total: len(runs),
				Index: i, Result: res,
			})
		}
		done[i], held[i] = true, res
		for emitted < len(runs) && done[emitted] && sinkErr == nil {
			if err := cfg.emit(held[emitted]); err != nil {
				sinkErr = err
				cancel()
				break
			}
			emitted++
		}
	}

	results, err := harness.RunBatchObserved(ctx, runs, cfg.workers, onResult, attach)
	if sinkErr != nil && (err == nil || errors.Is(err, context.Canceled)) {
		// The cancellation above surfaces as ctx.Err from the batch;
		// report the root cause instead (without masking a real run error).
		err = sinkErr
	}
	if ferr := cfg.flushSinks(); err == nil {
		err = ferr
	}
	return results, err
}
