// Package harness assembles complete experiments: it builds clusters for
// any (algorithm, fault pattern, attack) combination, runs them, measures
// skew / spread / pulse periods / envelope rates, and checks the results
// against the analytic bounds.
//
// The experiment suite (internal/experiment), campaigns, the fabric and
// the benchmark all run simulations through this package.
package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"

	"optsync/internal/adversary"
	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/probe"
)

// Algorithm selects the protocol under test.
type Algorithm string

// Supported algorithms.
const (
	AlgoAuth Algorithm = "st-auth"
	AlgoPrim Algorithm = "st-primitive"
	AlgoCNV  Algorithm = "cnv"
	AlgoFTM  Algorithm = "ftm"
)

// Attack selects the behaviour of faulty nodes.
type Attack string

// Supported attacks.
const (
	// AttackNone runs a fault-free cluster (FaultyCount ignored).
	AttackNone Attack = "none"
	// AttackSilent crashes faulty nodes at boot.
	AttackSilent Attack = "silent"
	// AttackCrashMid runs faulty nodes correctly, then kills them halfway
	// through the horizon.
	AttackCrashMid Attack = "crash-mid"
	// AttackRush fires protocol rounds at the adversary's pace
	// (AuthRush/PrimRush depending on the algorithm). Needs
	// FaultyCount >= Params.F+1 to actually break anything.
	AttackRush Attack = "rush"
	// AttackBias reports biased clock readings (baselines).
	AttackBias Attack = "bias"
	// AttackEquivocate sends selective/stale evidence (auth algorithm,
	// within resilience; must be harmless).
	AttackEquivocate Attack = "equivocate"
	// AttackSelective signs early but delivers signatures to only half the
	// correct processes, forcing the rest onto the relay path — the
	// Theta(d) worst case of the authenticated algorithm.
	AttackSelective Attack = "selective"
)

// Spec fully describes one run.
type Spec struct {
	Name   string
	Algo   Algorithm
	Params bounds.Params
	// FaultyCount is the actual number of Byzantine nodes (may exceed
	// Params.F for resilience-boundary experiments). The highest node ids
	// are faulty.
	FaultyCount int
	Attack      Attack
	// Bias is the clock-report shift for AttackBias.
	Bias float64
	// RushInterval is the real-time round spacing for AttackRush.
	RushInterval float64
	// Horizon is the simulated duration; zero defaults to 30 periods.
	Horizon float64
	// SampleEvery is the skew sampling interval; zero defaults to
	// Period/20.
	SampleEvery float64
	Seed        int64
	// CNVDelta is the egocentric threshold for AlgoCNV; zero defaults to
	// 4x the ST skew bound (a plausible operating point).
	CNVDelta float64
	// Window is the baseline collection window; zero defaults to
	// 4*(1+rho)*dmax + InitialSkew.
	Window float64
	// KeepSeries retains the full skew time series in the result.
	KeepSeries bool
	// SpreadDelays uses the adversarial Spread delay policy (min delay to
	// half the nodes, max to the other half) instead of Uniform.
	SpreadDelays bool
	// SlewRate, when positive, amortizes clock adjustments (monotone
	// continuous logical clocks) instead of jumping.
	SlewRate float64
	// ColdStart boots the core algorithms without initial synchrony:
	// hardware clocks start up to 100 periods wrong.
	ColdStart bool
	// DisableRelay ablates the relay-on-accept step (auth algorithm).
	DisableRelay bool
	// StartAt optionally delays individual nodes' boot to the given
	// virtual time (reintegration experiments); absent nodes boot at 0.
	// Skew is then sampled over booted nodes only, and MaxSkew includes
	// each joiner's integration window — read Series/Pulses for
	// integration analyses rather than WithinSkew.
	StartAt map[int]float64
	// ClockOffset optionally pins individual correct nodes' initial
	// hardware clock offset, overriding the random draw (late joiners
	// fresh from repair, adversarially placed clocks).
	ClockOffset map[int]float64
	// Topology selects the network connectivity by registered name
	// ("mesh", "wan:R", "ring:D", ...). Empty means the default
	// full mesh, whose results are pinned by the golden tests.
	Topology string
	// Shards selects the execution strategy, never the result: every
	// shard count produces bit-identical results, stats, and probe
	// traces, so Shards is excluded from the canonical spec key. 0
	// auto-picks from the machine and cluster size, 1 forces the serial
	// engine, k > 1 runs k parallel worker shards (clamped to N; falls
	// back to serial when the delay policy exposes no positive minimum
	// delay, since conservative parallelism needs the dmin lookahead).
	// Negative values are a spec error.
	Shards int
	// Partitions schedules network partition/heal churn on top of the
	// topology: during each window, links crossing the cut are down.
	Partitions []Partition
}

// Partition is one scheduled partition window: from At until Heal, nodes
// with id < LeftSize cannot exchange messages with the rest. Heal <= At
// means the partition never heals within the run.
type Partition struct {
	// At is the virtual time the cut appears.
	At float64
	// Heal is the virtual time the cut disappears (0 or <= At: never).
	Heal float64
	// LeftSize is the number of lowest-id nodes on the left side.
	LeftSize int
}

// ParsePartition parses one "at:heal:leftSize" window (heal 0 = never
// heals) — the textual form shared by the CLI flag and the campaign
// axis. strconv parsing rejects trailing garbage that Sscanf would
// silently drop.
func ParsePartition(s string) (Partition, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return Partition{}, fmt.Errorf("partition %q: want at:heal:leftSize", s)
	}
	var (
		p   Partition
		err error
	)
	if p.At, err = strconv.ParseFloat(parts[0], 64); err != nil {
		return Partition{}, fmt.Errorf("partition %q: bad at %q", s, parts[0])
	}
	if p.Heal, err = strconv.ParseFloat(parts[1], 64); err != nil {
		return Partition{}, fmt.Errorf("partition %q: bad heal %q", s, parts[1])
	}
	if p.LeftSize, err = strconv.Atoi(parts[2]); err != nil {
		return Partition{}, fmt.Errorf("partition %q: bad leftSize %q", s, parts[2])
	}
	return p, nil
}

func (s Spec) withDefaults() Spec {
	s.Params = s.Params.WithDefaults()
	if s.Horizon == 0 {
		s.Horizon = 30 * s.Params.Period
	}
	if s.SampleEvery == 0 {
		s.SampleEvery = s.Params.Period / 20
	}
	if s.Attack == "" {
		s.Attack = AttackNone
	}
	if s.Attack == AttackNone {
		s.FaultyCount = 0
	}
	if s.CNVDelta == 0 {
		s.CNVDelta = 4 * s.Params.Dmax()
	}
	if s.Window == 0 {
		s.Window = 4*s.Params.Rho.MaxRate()*s.Params.DMax + s.Params.InitialSkew
	}
	if s.RushInterval == 0 {
		s.RushInterval = s.Params.Period / 10
	}
	return s
}

// Result aggregates everything measured in one run.
type Result struct {
	Spec Spec

	// Agreement.
	MaxSkew     float64
	SkewBound   float64
	WithinSkew  bool
	SkewSamples int
	// SkewP50/P95/P99 are streaming (P-squared) percentile estimates of
	// the sampled skew, computed by the built-in probe collector in O(1)
	// memory — the per-cell distribution campaigns previously needed
	// KeepSeries for.
	SkewP50, SkewP95, SkewP99 float64

	// Acceptance spread (core algorithms; 0 rounds for baselines means
	// spread is measured over baseline pulses instead).
	MaxSpread   float64
	SpreadBound float64

	// Liveness.
	CompleteRounds int
	PulseCount     int

	// Pulse periods.
	MinPeriod, MaxPeriod float64
	PminBound, PmaxBound float64

	// Accuracy envelope.
	EnvLo, EnvHi           float64
	EnvBoundLo, EnvBoundHi float64
	WithinEnvelope         bool
	EnvelopeOK             bool // fit succeeded

	// Traffic. TotalMsgs is what went on a wire (network Stats.Sent);
	// the drop counters keep the network layer's disjoint taxonomy:
	// Dropped at send by the delay policy, DroppedOffline at delivery
	// with no handler, DroppedLink suppressed for want of a usable link
	// (never counted in TotalMsgs).
	TotalMsgs      uint64
	MsgsPerRound   float64
	Delivered      uint64
	Dropped        uint64
	DroppedOffline uint64
	DroppedLink    uint64

	// Series and Pulses, if Spec.KeepSeries.
	Series []probe.Sample
	Pulses []node.PulseRecord

	// Runtime counts what the simulator did to produce the result (arena
	// slots, queue chunks, signature checks computed rather than
	// remembered). It describes the execution, which may differ
	// between shard counts, so it is no part of the result proper: sinks,
	// store cells and the fabric wire leave it out.
	Runtime node.RuntimeStats `json:"-"`
}

// runChunks splits a run's horizon into this many context-check slices so
// long simulations notice cancellation without measurable overhead.
const runChunks = 8

// Observe attaches probes for one run about to execute. It is invoked
// after the cluster is built and before the engine runs, with the
// defaulted spec and the run's bus; everything it attaches sees the full
// event stream. Probes observe — they must not schedule events or draw
// randomness, and the engine gives them no handle to do either, so a
// probed run is byte-identical to an unprobed one.
type Observe func(spec Spec, bus *probe.Bus)

// RunContext executes the spec and returns measurements. The protocol and
// the faulty-node behaviour are resolved through the registry, so any
// algorithm or attack registered by any package is reachable from a Spec.
// Cancelling ctx aborts the simulation between event-processing chunks
// and returns ctx.Err(). Results are deterministic in the spec alone.
func RunContext(ctx context.Context, spec Spec) (Result, error) {
	return RunObserved(ctx, spec, nil)
}

// RunObserved is RunContext with observation attached: the run's typed
// event stream (messages, pulses, resyncs, boots, partition markers, skew
// samples) is fanned out to whatever attach subscribes, alongside the
// built-in collectors that produce the Result's skew statistics.
func RunObserved(ctx context.Context, spec Spec, attach Observe) (Result, error) {
	spec = spec.withDefaults()
	p := spec.Params

	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	cluster, err := buildCluster(spec)
	if err != nil {
		return Result{}, err
	}
	defer cluster.Close()

	// The observation pipeline: the sampler drives skew-sample events, the
	// nodes pulse events; bounded-memory folds turn them into the Result;
	// the full series and pulse log are retained only on request, by
	// collectors like any other.
	bus := cluster.Engine.Probes()
	correct := correctIDs(p.N, spec.FaultyCount)
	pulses := newPulseFold(len(correct))
	bus.Attach(pulses, probe.TypePulse)
	skewStats := probe.NewSkewStats()
	bus.AttachCollector(skewStats)
	var series *probe.Series
	var pulseLog *node.PulseLog
	if spec.KeepSeries {
		series = probe.NewSeries()
		bus.AttachCollector(series)
		pulseLog = cluster.LogPulses()
	}
	if attach != nil {
		attach(spec, bus)
	}
	schedulePartitionMarkers(cluster, spec.Partitions)

	cluster.Start()

	sampled := correct
	if len(spec.StartAt) > 0 {
		// Staggered boots: sample only nodes that have booted by each
		// tick — an offline joiner's clock is not yet comparable. Note
		// that MaxSkew still covers a joiner's integration window (boot
		// until its first accepted round), so WithinSkew is about the
		// whole run, not just steady state; integration experiments read
		// Series/Pulses.
		sampled = nil
	}
	sampler := newSkewSampler(cluster, sampled, spec.SampleEvery)
	for i := 1; i <= runChunks; i++ {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		until := spec.Horizon * float64(i) / runChunks
		if i == runChunks {
			until = spec.Horizon // exact horizon, no float drift
		}
		cluster.Run(until)
	}
	sampler.stop()

	res := measure(spec, pulses, skewStats, cluster.NetStats())
	if spec.KeepSeries {
		res.Series = series.Samples
		res.Pulses = pulseLog.Records
	}
	res.Runtime = cluster.RuntimeStats()
	return res, nil
}

// measure assembles the Result of a defaulted spec from the folds that
// observed its run and the run's traffic counters.
func measure(spec Spec, pulses *pulseFold, skew *probe.SkewStats, stats network.Stats) Result {
	p := spec.Params
	correct := len(pulses.xs)
	res := Result{
		Spec:           spec,
		MaxSkew:        skew.Max(),
		SkewBound:      p.DmaxWithStart(),
		SkewSamples:    skew.Count(),
		SkewP50:        skew.P50(),
		SkewP95:        skew.P95(),
		SkewP99:        skew.P99(),
		SpreadBound:    p.Beta(),
		MaxSpread:      pulses.spread.MaxSpread(correct),
		CompleteRounds: pulses.spread.CompleteRounds(correct),
		PulseCount:     pulses.count,
		MinPeriod:      pulses.minGap,
		MaxPeriod:      pulses.maxGap,
		PminBound:      p.Pmin(),
		PmaxBound:      p.Pmax(),
	}
	res.WithinSkew = res.MaxSkew <= res.SkewBound
	res.EnvLo, res.EnvHi, res.EnvelopeOK = pulses.envelope()
	// Envelope bounds are evaluated over the actual measurement span, where
	// bounded per-round phase noise averages out (see bounds.EnvelopeSlackOver).
	res.EnvBoundLo, res.EnvBoundHi = envelopeBounds(spec, spec.Horizon-p.Period)
	res.WithinEnvelope = res.EnvelopeOK &&
		res.EnvLo >= res.EnvBoundLo && res.EnvHi <= res.EnvBoundHi

	res.TotalMsgs = stats.Sent
	res.Delivered = stats.Delivered
	res.Dropped = stats.Dropped
	res.DroppedOffline = stats.DroppedOffline
	res.DroppedLink = stats.DroppedLink
	if res.CompleteRounds > 0 {
		res.MsgsPerRound = float64(stats.Sent) / float64(res.CompleteRounds)
	}
	return res
}

// schedulePartitionMarkers places inert marker events at every scheduled
// cut and heal instant so traces and probes see partition churn as part
// of the event stream. The markers draw no randomness and touch no
// simulation state, so scheduling them never perturbs results.
func schedulePartitionMarkers(cluster *node.Cluster, windows []Partition) {
	bus := cluster.Engine.Probes()
	for _, w := range windows {
		w := w
		at := w.At
		if at < 0 {
			at = 0
		}
		cluster.Engine.MustAt(at, func() {
			if bus.Active(probe.TypePartitionCut) {
				bus.Emit(probe.Event{
					Type: probe.TypePartitionCut, From: -1, To: int32(w.LeftSize),
					T: cluster.Engine.Now(),
				})
			}
		})
		if w.Heal > at {
			cluster.Engine.MustAt(w.Heal, func() {
				if bus.Active(probe.TypePartitionHeal) {
					bus.Emit(probe.Event{
						Type: probe.TypePartitionHeal, From: -1, To: int32(w.LeftSize),
						T: cluster.Engine.Now(),
					})
				}
			})
		}
	}
}

// envelopeBounds returns the admissible long-run clock rate interval for
// the algorithm under test. Protocols registered with WithEnvelope (the
// ST algorithms carry the paper's alpha/P and (beta+dmax)/P correction
// terms, provably unavoidable) supply their own bounds; every other
// protocol — the averaging baselines make no alpha jump — is held to the
// plain hardware envelope plus regression slack over the measurement span,
// which is exactly why a sustained bias attack on CNV is a visible
// accuracy violation.
func envelopeBounds(spec Spec, span float64) (lo, hi float64) {
	if env := protocolEnvelope(spec.Algo); env != nil {
		return env(spec, span)
	}
	p := spec.Params
	if min := p.Pmin(); span < min {
		span = min
	}
	eps := p.DMax + p.InitialSkew // per-round phase noise amplitude
	s := 4 * eps / span
	return p.Rho.MinRate() - s, p.Rho.MaxRate() + s
}

func correctIDs(n, faulty int) []node.ID {
	ids := make([]node.ID, 0, n-faulty)
	for i := 0; i < n-faulty; i++ {
		ids = append(ids, i)
	}
	return ids
}

// buildCluster wires protocols, clocks, delays, and attacks. Both the
// correct-node protocol and the faulty-node behaviour are resolved through
// the registry; there is no hard-wired algorithm or attack list here.
func buildCluster(spec Spec) (*node.Cluster, error) {
	p := spec.Params

	// Validate all names up front so a misspelled spec fails loudly even
	// when no faulty node would have exercised the attack builder.
	if _, err := protocols.lookup(spec.Algo); err != nil {
		return nil, err
	}
	if _, err := attacks.lookup(spec.Attack); err != nil {
		return nil, err
	}
	if err := wellFormed(spec); err != nil {
		return nil, err
	}
	topo, err := topologyFor(spec)
	if err != nil {
		return nil, err
	}

	faulty := make(map[int]bool, spec.FaultyCount)
	for i := p.N - spec.FaultyCount; i < p.N; i++ {
		faulty[i] = true
	}

	coalition := adversary.NewCollusion()
	rushRounds := int(spec.Horizon/spec.RushInterval) + 1
	leader := p.N - spec.FaultyCount // the lowest faulty id leads coalitions

	protos := make([]node.Protocol, p.N)
	for i := 0; i < p.N; i++ {
		var err error
		if faulty[i] {
			protos[i], err = newAttack(spec, AttackEnv{
				ID:         i,
				Leader:     i == leader,
				Coalition:  coalition,
				RushRounds: rushRounds,
			})
		} else {
			protos[i], err = NewProtocol(spec)
		}
		if err != nil {
			return nil, err
		}
	}

	var delay network.Policy = network.Uniform{Min: p.DMin, Max: p.DMax}
	if spec.SpreadDelays {
		slow := make(map[node.ID]bool)
		for i := 0; i < p.N; i += 2 {
			slow[i] = true
		}
		delay = network.Spread{Min: p.DMin, Max: p.DMax, Slow: slow}
	}

	shards := spec.Shards
	if shards == 0 {
		shards = autoShards(p.N)
	}

	return node.NewCluster(node.Config{
		N: p.N, F: p.F, Seed: spec.Seed,
		Rho:       p.Rho,
		Delay:     delay,
		Topology:  topo,
		SlewRate:  spec.SlewRate,
		StartAt:   spec.StartAt,
		Shards:    shards,
		Lookahead: network.Lookahead(delay),
		Clocks: func(i int, rng *rand.Rand) *clock.Hardware {
			if faulty[i] {
				// Faulty nodes get perfect clocks: the adversary can
				// schedule on real time.
				return clock.NewConstant(0, 1, p.Rho)
			}
			// Draw before applying any pinned offset so the per-node rng
			// stream stays aligned with and without overrides.
			offset := rng.Float64() * p.InitialSkew
			if spec.ColdStart {
				offset = rng.Float64() * 100 * p.Period
			}
			if pinned, ok := spec.ClockOffset[i]; ok {
				offset = pinned
			}
			return clock.NewHardware(offset, p.Rho,
				clock.RandomWalk{Rho: p.Rho, MinDur: p.Period / 7, MaxDur: p.Period}, rng)
		},
		Protocols: func(i int) node.Protocol { return protos[i] },
		Faulty:    faulty,
	}), nil
}

// wellFormed rejects a defaulted spec that no run can execute: a number
// that is not finite, bounds out of order, a count or a constant out of its
// range. Each of these used to panic (or hang) somewhere below the harness.
// It is not Params.Validate: a spec outside the resilience bound, or with a
// period too short for the guarantees, is a legitimate experiment and runs.
func wellFormed(spec Spec) error {
	p := spec.Params
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	bad := func(field string, v any, want string) error {
		return fmt.Errorf("harness: %s=%v invalid (want %s)", field, v, want)
	}
	switch {
	case p.N < 1:
		return bad("N", p.N, "at least one node")
	case p.F < 0:
		return bad("F", p.F, "f >= 0")
	case spec.FaultyCount < 0 || spec.FaultyCount > p.N:
		return bad("FaultyCount", spec.FaultyCount, fmt.Sprintf("0..N=%d", p.N))
	case !finite(float64(p.Rho)) || p.Rho < 0:
		return bad("Rho", p.Rho, "a finite drift bound >= 0")
	case !finite(p.DMin) || p.DMin < 0:
		return bad("DMin", p.DMin, "a finite delay >= 0")
	case !finite(p.DMax) || p.DMax < p.DMin:
		return bad("DMax", p.DMax, fmt.Sprintf("a finite delay >= DMin=%v", p.DMin))
	case !finite(p.Period) || p.Period <= 0:
		return bad("Period", p.Period, "a positive finite period")
	case !finite(p.Alpha) || p.Alpha < 0 || p.Alpha >= p.Period:
		return bad("Alpha", p.Alpha, fmt.Sprintf("0 <= alpha < Period=%v; 0 defaults to (1+rho)*DMax", p.Period))
	case !finite(p.InitialSkew) || p.InitialSkew < 0:
		return bad("InitialSkew", p.InitialSkew, "a finite skew >= 0")
	case spec.Shards < 0:
		return bad("Shards", spec.Shards, "0 auto-picks, 1 forces serial, k>1 runs k shards")
	// A sampler that re-arms zero or a negative interval ahead never lets
	// the clock advance, and a run toward a NaN or infinite horizon never
	// ends.
	case !finite(spec.SampleEvery) || spec.SampleEvery <= 0:
		return bad("SampleEvery", spec.SampleEvery, "a positive finite interval; 0 defaults to Period/20")
	case !finite(spec.Horizon):
		return bad("Horizon", spec.Horizon, "a finite duration; 0 defaults to 30 periods")
	case !finite(spec.RushInterval) || spec.RushInterval <= 0:
		return bad("RushInterval", spec.RushInterval, "a positive finite interval; 0 defaults to Period/10")
	case !finite(spec.Window) || spec.Window <= 0:
		return bad("Window", spec.Window, "a positive finite window; 0 defaults to 4*(1+rho)*DMax + InitialSkew")
	case !finite(spec.CNVDelta) || spec.CNVDelta <= 0:
		return bad("CNVDelta", spec.CNVDelta, "a positive finite threshold; 0 defaults to 4*Dmax")
	case !finite(spec.Bias):
		return bad("Bias", spec.Bias, "a finite shift")
	case !(spec.SlewRate < 1):
		return bad("SlewRate", spec.SlewRate, "a rate below 1; <= 0 jumps")
	}
	for id, at := range spec.StartAt {
		if id < 0 || id >= p.N || !finite(at) || at < 0 {
			return bad(fmt.Sprintf("StartAt[%d]", id), at, fmt.Sprintf("a node id in 0..%d booting at a finite time >= 0", p.N-1))
		}
	}
	for id, off := range spec.ClockOffset {
		if id < 0 || id >= p.N || !finite(off) {
			return bad(fmt.Sprintf("ClockOffset[%d]", id), off, fmt.Sprintf("a node id in 0..%d with a finite offset", p.N-1))
		}
	}
	for i, w := range spec.Partitions {
		if !finite(w.At) || !finite(w.Heal) {
			return bad(fmt.Sprintf("Partitions[%d]", i), fmt.Sprintf("at %v heal %v", w.At, w.Heal), "finite instants")
		}
	}
	return nil
}

// autoShards picks the shard count for Spec.Shards == 0: serial below
// the cluster size where window barriers start paying for themselves
// (sharding a small mesh costs more in synchronization than it saves),
// otherwise up to 8 workers bounded by the machine's parallelism. The
// choice affects wall-clock only — results are identical either way.
func autoShards(n int) int {
	if n < 1024 {
		return 1
	}
	k := runtime.GOMAXPROCS(0)
	if k > 8 {
		k = 8
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Boot builds and starts the cluster a spec describes and returns it with
// the spec's correct node ids — the entry point for experiments that
// inspect cluster state (clocks, protocols, a LogPulses log) instead of a
// Result. The caller drives it with Run and closes it. Malformed specs
// surface as errors, never panics.
func Boot(spec Spec) (*node.Cluster, []node.ID, error) {
	spec = spec.withDefaults()
	cluster, err := buildCluster(spec)
	if err != nil {
		return nil, nil, err
	}
	cluster.Start()
	return cluster, correctIDs(spec.Params.N, spec.FaultyCount), nil
}
