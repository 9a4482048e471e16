package harness

import (
	"context"
	"math"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/node"
	"optsync/internal/probe"
)

func observeTestSpec() Spec {
	p := bounds.Params{
		N: 5, F: 2, Variant: bounds.Auth,
		Rho: 1e-4, DMin: 0.002, DMax: 0.01,
		Period: 1.0, InitialSkew: 0.005,
	}.WithDefaults()
	return Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		Horizon: 8, Seed: 42,
	}
}

// TestProbesDoNotPerturbResults is the determinism half of the probe
// contract: a heavily observed run must produce a Result byte-identical
// to an unobserved one (the golden test pins the unobserved baseline).
func TestProbesDoNotPerturbResults(t *testing.T) {
	spec := observeTestSpec()
	plain, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	observed, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.Attach(probe.Func(func(probe.Event) { events++ }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("probe saw no events")
	}
	if recordOf(plain) != recordOf(observed) {
		t.Fatalf("probes perturbed the run:\n plain    %+v\n observed %+v",
			recordOf(plain), recordOf(observed))
	}
}

// TestRunObservedEventStream sanity-checks the cross-layer stream: the
// built-in collectors and a user spread collector must agree with the
// Result computed by the harness itself.
func TestRunObservedEventStream(t *testing.T) {
	spec := observeTestSpec()
	msgs := probe.NewMsgStats()
	spread := probe.NewSpreadStats()
	boots := 0
	res, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.AttachCollector(msgs)
		bus.AttachCollector(spread)
		bus.Attach(probe.Func(func(probe.Event) { boots++ }), probe.TypeNodeBoot)
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs.Sent() != res.TotalMsgs {
		t.Fatalf("collector sent %d != Result.TotalMsgs %d", msgs.Sent(), res.TotalMsgs)
	}
	if msgs.Delivered() != res.Delivered {
		t.Fatalf("collector delivered %d != Result.Delivered %d", msgs.Delivered(), res.Delivered)
	}
	if boots != spec.Params.N {
		t.Fatalf("boot events = %d, want %d", boots, spec.Params.N)
	}
	// Spread over all pulses (incl. none here from faulty silent nodes)
	// must cover at least the complete rounds the report counted.
	if spread.Rounds() < res.CompleteRounds {
		t.Fatalf("spread collector saw %d rounds < %d complete", spread.Rounds(), res.CompleteRounds)
	}
}

// TestRunObservedSkewQuantiles: the new Result percentiles must be
// internally consistent and bounded by MaxSkew.
func TestRunObservedSkewQuantiles(t *testing.T) {
	res, err := RunContext(context.Background(), observeTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.SkewP50 <= 0 || res.SkewP95 < res.SkewP50 || res.SkewP99 < res.SkewP95 {
		t.Fatalf("quantiles disordered: p50=%v p95=%v p99=%v", res.SkewP50, res.SkewP95, res.SkewP99)
	}
	if res.SkewP99 > res.MaxSkew {
		t.Fatalf("p99 %v > max %v", res.SkewP99, res.MaxSkew)
	}
}

// TestPartitionMarkerEvents: scheduled partition windows surface as cut
// and heal marker events at the right instants.
func TestPartitionMarkerEvents(t *testing.T) {
	spec := observeTestSpec()
	spec.FaultyCount = 0
	spec.Attack = AttackNone
	spec.Horizon = 12
	spec.Partitions = []Partition{{At: 3, Heal: 6, LeftSize: 2}, {At: 9, Heal: 0, LeftSize: 1}}
	var marks []probe.Event
	_, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.Attach(probe.Func(func(ev probe.Event) {
			marks = append(marks, ev)
		}), probe.TypePartitionCut, probe.TypePartitionHeal)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != 3 {
		t.Fatalf("marker events = %+v, want cut@3, heal@6, cut@9", marks)
	}
	if marks[0].Type != probe.TypePartitionCut || marks[0].T != 3 || marks[0].To != 2 {
		t.Fatalf("cut marker = %+v", marks[0])
	}
	if marks[1].Type != probe.TypePartitionHeal || marks[1].T != 6 || marks[1].To != 2 {
		t.Fatalf("heal marker = %+v", marks[1])
	}
	if marks[2].Type != probe.TypePartitionCut || marks[2].T != 9 || marks[2].To != 1 {
		t.Fatalf("unhealed cut marker = %+v", marks[2])
	}
}

// TestScenarioErrorsSurface: an experiment hitting a malformed spec must
// return an error, not panic (the batch path used to panic), through
// either entry it runs specs by.
func TestScenarioErrorsSurface(t *testing.T) {
	bad := Spec{Algo: "no-such-algo", Params: observeTestSpec().Params}
	if _, err := RunBatch(context.Background(), []Spec{bad}, 0, nil); err == nil {
		t.Fatal("RunBatch swallowed a malformed spec")
	}
	if _, _, err := Boot(bad); err == nil {
		t.Fatal("Boot swallowed a malformed spec")
	}
}

// --- the skew sampler ---

type idleProto struct{}

func (idleProto) Start(node.Env)                          {}
func (idleProto) Deliver(node.Env, node.ID, node.Message) {}

func idleCluster(n int) *node.Cluster {
	c := node.NewCluster(node.Config{
		N: n, F: 0, Seed: 1,
		Protocols: func(int) node.Protocol { return idleProto{} },
	})
	c.Start()
	return c
}

// attachSeries retains the skew samples the cluster's bus carries, the
// way RunObserved does for Spec.KeepSeries.
func attachSeries(c *node.Cluster) *probe.Series {
	series := probe.NewSeries()
	c.Engine.Probes().AttachCollector(series)
	return series
}

func TestSkewSamplerRecordsSeries(t *testing.T) {
	c := idleCluster(2)
	series := attachSeries(c)
	newSkewSampler(c, []node.ID{0, 1}, 0.5)
	c.Nodes[1].SetLogical(0.3) // static offset of 0.3 between perfect clocks
	c.Run(2.6)
	if len(series.Samples) != 5 {
		t.Fatalf("samples = %d, want 5", len(series.Samples))
	}
	for i, smp := range series.Samples {
		if math.Abs(smp.Skew-0.3) > 1e-12 || math.Abs(smp.T-0.5*float64(i+1)) > 1e-12 {
			t.Fatalf("sample %d = %+v, want skew 0.3 at t=%v", i, smp, 0.5*float64(i+1))
		}
	}
}

func TestSkewSamplerStop(t *testing.T) {
	c := idleCluster(2)
	series := attachSeries(c)
	s := newSkewSampler(c, []node.ID{0, 1}, 0.5)
	c.Run(1.1)
	s.stop()
	c.Run(5)
	if len(series.Samples) != 2 {
		t.Fatalf("samples after stop = %d, want 2", len(series.Samples))
	}
}

func TestSkewSamplerEmptyMax(t *testing.T) {
	c := idleCluster(1)
	series := attachSeries(c)
	newSkewSampler(c, []node.ID{0}, 1)
	if len(series.Samples) != 0 {
		t.Fatalf("samples before the engine ran = %v", series.Samples)
	}
	c.Run(3.5)
	for _, smp := range series.Samples {
		if smp.Skew != 0 {
			t.Fatalf("one-node sample %+v, want zero skew", smp)
		}
	}
}

// TestSkewSamplerEmitsProbeEvents: every tick goes to the engine bus with
// the sampled node count and skew.
func TestSkewSamplerEmitsProbeEvents(t *testing.T) {
	c := idleCluster(2)
	newSkewSampler(c, []node.ID{0, 1}, 0.5)
	var got []probe.Event
	c.Engine.Probes().Attach(probe.Func(func(ev probe.Event) {
		got = append(got, ev)
	}), probe.TypeSkewSample)
	c.Nodes[1].SetLogical(0.3)
	c.Run(2.6)
	if len(got) != 5 {
		t.Fatalf("bus saw %d skew samples, want 5", len(got))
	}
	for _, ev := range got {
		if ev.Round != 2 || math.Abs(ev.Value-0.3) > 1e-12 || ev.From != -1 {
			t.Fatalf("event = %+v", ev)
		}
	}
}

// TestSkewSamplerStopBeforeFirstTick: stopping before the first interval
// elapses must record nothing and leave no stray events firing.
func TestSkewSamplerStopBeforeFirstTick(t *testing.T) {
	c := idleCluster(2)
	series := attachSeries(c)
	s := newSkewSampler(c, []node.ID{0, 1}, 1.0)
	events := 0
	c.Engine.Probes().Attach(probe.Func(func(probe.Event) { events++ }), probe.TypeSkewSample)
	c.Run(0.5)
	s.stop()
	c.Run(10)
	if len(series.Samples) != 0 || events != 0 {
		t.Fatalf("stopped-before-first-tick sampler recorded %d samples, %d events",
			len(series.Samples), events)
	}
}

// TestBootedSamplerZeroBootedNodes: with every correct node booting late,
// early ticks sample an empty id set — the skew must be 0, not a panic,
// and the tick must still be recorded (liveness of the sampling loop).
func TestBootedSamplerZeroBootedNodes(t *testing.T) {
	c := node.NewCluster(node.Config{
		N: 2, F: 0, Seed: 1,
		Protocols: func(int) node.Protocol { return idleProto{} },
		StartAt:   map[int]float64{0: 5, 1: 5},
	})
	c.Start()
	series := attachSeries(c)
	newSkewSampler(c, nil, 1.0)
	c.Run(3.5)
	if len(series.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(series.Samples))
	}
	for _, smp := range series.Samples {
		if smp.Skew != 0 {
			t.Fatalf("pre-boot sample %+v, want zero skew", smp)
		}
	}
}

// TestJoinerSamplerTickAllocatesNothing: with a joiner in the spec the
// sampler measures whichever correct nodes have booted by each tick, and
// it refills one slice of their ids rather than allocating one a tick.
func TestJoinerSamplerTickAllocatesNothing(t *testing.T) {
	spec := Spec{Algo: AlgoAuth, Params: lanParams(6, 1, bounds.Auth), Attack: AttackNone,
		StartAt: map[int]float64{4: 2.5}, Horizon: 10, Seed: 1}
	cluster, _, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	s := newSkewSampler(cluster, nil, 0.05)
	cluster.Run(3) // past the joiner's boot
	if allocs := testing.AllocsPerRun(100, s.sample); allocs != 0 {
		t.Fatalf("a joiner run's sampler tick allocates %v times", allocs)
	}
	if len(s.booted) != 6 {
		t.Fatalf("the tick measured %d booted correct nodes, want 6", len(s.booted))
	}
}

// TestSkewSamplerPastHorizon: Engine.Run(until) advances time to the
// horizon even when the last tick lands beyond it; the sampler must not
// record a sample past the last processed tick, and resuming the engine
// must resume sampling without a gap.
func TestSkewSamplerPastHorizon(t *testing.T) {
	c := idleCluster(2)
	series := attachSeries(c)
	newSkewSampler(c, []node.ID{0, 1}, 1.0)
	c.Run(2.5) // ticks at 1.0 and 2.0; the 3.0 tick is pending
	if len(series.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(series.Samples))
	}
	if last := series.Samples[len(series.Samples)-1].T; last > 2.5 {
		t.Fatalf("sample recorded at %v, past the horizon", last)
	}
	c.Run(4.5) // pending tick fires at 3.0, then 4.0
	if len(series.Samples) != 4 {
		t.Fatalf("samples after resume = %d, want 4", len(series.Samples))
	}
	if got := series.Samples[2].T; math.Abs(got-3.0) > 1e-12 {
		t.Fatalf("resumed tick at %v, want 3.0 (no gap, no drift)", got)
	}
}

// --- the pulse fold ---

// pulseFigures is every figure the Result takes from the pulse fold.
type pulseFigures struct {
	count, rounds, complete   int
	maxSpread, minGap, maxGap float64
	envOK                     bool
	envLo, envHi              float64
}

// foldPulses feeds a new fold time-ordered pulse events, as a run's bus or
// a lake replay does, and returns the fold.
func foldPulses(correct int, pulses []node.PulseRecord) *pulseFold {
	f := newPulseFold(correct)
	for _, p := range pulses {
		f.OnEvent(probe.Event{
			Type: probe.TypePulse, From: int32(p.Node), To: -1,
			Round: int32(p.Round), T: p.Real, Value: p.Logical,
		})
	}
	// A replayed lake feeds the fold every type: the others may move no
	// figure.
	f.OnEvent(probe.Event{Type: probe.TypeSkewSample, From: 0, T: 99, Value: 1})
	return f
}

// checkPulseFold folds the pulses and checks every figure against want.
func checkPulseFold(t *testing.T, correct int, pulses []node.PulseRecord, want pulseFigures) {
	t.Helper()
	f := foldPulses(correct, pulses)
	got := pulseFigures{
		count: f.count, rounds: f.spread.Rounds(), complete: f.spread.CompleteRounds(correct),
		maxSpread: f.spread.MaxSpread(correct), minGap: f.minGap, maxGap: f.maxGap,
	}
	got.envLo, got.envHi, got.envOK = f.envelope()
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	if got.count != want.count || got.rounds != want.rounds || got.complete != want.complete ||
		got.envOK != want.envOK || !near(got.maxSpread, want.maxSpread) ||
		!near(got.minGap, want.minGap) || !near(got.maxGap, want.maxGap) ||
		!near(got.envLo, want.envLo) || !near(got.envHi, want.envHi) {
		t.Fatalf("figures\n got  %+v\n want %+v", got, want)
	}
}

// twoRounds: nodes 0 and 1 are correct; node 2 is faulty and fakes a pulse.
func twoRounds() []node.PulseRecord {
	return []node.PulseRecord{
		{Node: 0, Round: 1, Real: 1.00, Logical: 1.1},
		{Node: 1, Round: 1, Real: 1.02, Logical: 1.1},
		{Node: 0, Round: 2, Real: 2.00, Logical: 2.1},
		{Node: 1, Round: 2, Real: 2.05, Logical: 2.1},
		{Node: 2, Round: 2, Real: 2.50, Logical: 2.1}, // faulty fake
	}
}

// TestPulseReportGrouping: the faulty pulse is counted, but left out of
// the spread; with it, round 2 would be incomplete with spread 0.5.
func TestPulseReportGrouping(t *testing.T) {
	checkPulseFold(t, 2, twoRounds(), pulseFigures{
		count: 5, rounds: 2, complete: 2, maxSpread: 0.05, minGap: 1.0, maxGap: 1.03,
		envOK: true, envLo: 1 / 1.03, envHi: 1})
	if got := foldPulses(2, twoRounds()).spread.CompleteRounds(3); got != 0 {
		t.Fatalf("CompleteRounds(3) = %d, want 0", got)
	}
}

// TestPulseReportPeriods: the gaps between successive correct pulses on a
// node are 1.0 (node 0) and 1.03 (node 1); the faulty pulse adds none.
func TestPulseReportPeriods(t *testing.T) {
	f := foldPulses(2, twoRounds())
	if math.Abs(f.minGap-1.0) > 1e-9 || math.Abs(f.maxGap-1.03) > 1e-9 {
		t.Fatalf("gaps [%v, %v], want [1, 1.03]", f.minGap, f.maxGap)
	}
}

func TestMaxSpreadIgnoresIncompleteRounds(t *testing.T) {
	checkPulseFold(t, 2, []node.PulseRecord{
		{Node: 0, Round: 1, Real: 1.0},
		{Node: 1, Round: 1, Real: 1.1},
		{Node: 0, Round: 2, Real: 9.0}, // node 1 hasn't accepted round 2 yet
	}, pulseFigures{count: 3, rounds: 2, complete: 1, maxSpread: 0.1, minGap: 8, maxGap: 8})
}

// TestEnvelopeRatesPerfectClock: pulses exactly at real time k on node 0
// (a rate-1 clock) and at 1.01k on node 1, adopting value k (P = 1).
func TestEnvelopeRatesPerfectClock(t *testing.T) {
	var perfect []node.PulseRecord
	for k := 1; k <= 10; k++ {
		perfect = append(perfect,
			node.PulseRecord{Node: 0, Round: k, Real: float64(k), Logical: float64(k)},
			node.PulseRecord{Node: 1, Round: k, Real: float64(k) * 1.01, Logical: float64(k)})
	}
	checkPulseFold(t, 2, perfect, pulseFigures{
		count: 20, rounds: 10, complete: 10, maxSpread: 0.1, minGap: 1, maxGap: 1.01,
		envOK: true, envLo: 1 / 1.01, envHi: 1})
}

// TestEnvelopeRatesErrors: no data, or a single point, leaves the envelope
// fit not ok.
func TestEnvelopeRatesErrors(t *testing.T) {
	checkPulseFold(t, 1, nil, pulseFigures{})
	checkPulseFold(t, 1, []node.PulseRecord{{Node: 0, Round: 1, Real: 1}},
		pulseFigures{count: 1, rounds: 1, complete: 1})
}
