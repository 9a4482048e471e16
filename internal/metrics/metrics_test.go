package metrics

import (
	"math"
	"testing"

	"optsync/internal/node"
	"optsync/internal/probe"
)

type idleProto struct{}

func (idleProto) Start(node.Env)                          {}
func (idleProto) Deliver(node.Env, node.ID, node.Message) {}

func testCluster(n int) *node.Cluster {
	c := node.NewCluster(node.Config{
		N: n, F: 0, Seed: 1,
		Protocols: func(int) node.Protocol { return idleProto{} },
	})
	c.Start()
	return c
}

// attachSeries retains the skew samples the cluster's bus carries, the
// way the harness does for Spec.KeepSeries.
func attachSeries(c *node.Cluster) *probe.Series {
	series := probe.NewSeries()
	c.Engine.Probes().AttachCollector(series)
	return series
}

func TestSkewSamplerRecordsSeries(t *testing.T) {
	c := testCluster(2)
	series := attachSeries(c)
	NewSkewSampler(c, []node.ID{0, 1}, 0.5)
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
	c := testCluster(2)
	series := attachSeries(c)
	s := NewSkewSampler(c, []node.ID{0, 1}, 0.5)
	c.Run(1.1)
	s.Stop()
	c.Run(5)
	if len(series.Samples) != 2 {
		t.Fatalf("samples after stop = %d, want 2", len(series.Samples))
	}
}

func TestSkewSamplerEmptyMax(t *testing.T) {
	c := testCluster(1)
	series := attachSeries(c)
	NewSkewSampler(c, []node.ID{0}, 1)
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

func pulses() []node.PulseRecord {
	return []node.PulseRecord{
		{Node: 0, Round: 1, Real: 1.00, Logical: 1.1},
		{Node: 1, Round: 1, Real: 1.02, Logical: 1.1},
		{Node: 0, Round: 2, Real: 2.00, Logical: 2.1},
		{Node: 1, Round: 2, Real: 2.05, Logical: 2.1},
		{Node: 2, Round: 2, Real: 2.50, Logical: 2.1}, // faulty fake
	}
}

func TestPulseReportGrouping(t *testing.T) {
	rep := NewPulseReport(pulses(), []node.ID{0, 1})
	if len(rep.Rounds) != 2 {
		t.Fatalf("rounds = %d", len(rep.Rounds))
	}
	r1 := rep.Rounds[0]
	if r1.Round != 1 || r1.Count != 2 || math.Abs(r1.Spread-0.02) > 1e-12 {
		t.Fatalf("round 1 = %+v", r1)
	}
	r2 := rep.Rounds[1]
	// Faulty node 2's record must be excluded.
	if r2.Count != 2 || math.Abs(r2.Spread-0.05) > 1e-12 {
		t.Fatalf("round 2 = %+v", r2)
	}
	if got := rep.MaxSpread(2); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("MaxSpread = %v", got)
	}
	if got := rep.CompleteRounds(2); got != 2 {
		t.Fatalf("CompleteRounds = %d", got)
	}
	if got := rep.CompleteRounds(3); got != 0 {
		t.Fatalf("CompleteRounds(3) = %d", got)
	}
}

func TestPulseReportPeriods(t *testing.T) {
	rep := NewPulseReport(pulses(), []node.ID{0, 1})
	got := rep.Periods()
	if len(got) != 2 {
		t.Fatalf("periods = %v", got)
	}
	want := map[float64]bool{1.0: true, 1.03: true}
	for _, p := range got {
		matched := false
		for w := range want {
			if math.Abs(p-w) < 1e-9 {
				matched = true
			}
		}
		if !matched {
			t.Fatalf("unexpected period %v", p)
		}
	}
}

func TestMaxSpreadIgnoresIncompleteRounds(t *testing.T) {
	ps := []node.PulseRecord{
		{Node: 0, Round: 1, Real: 1.0},
		{Node: 1, Round: 1, Real: 1.1},
		{Node: 0, Round: 2, Real: 9.0}, // node 1 hasn't accepted round 2 yet
	}
	rep := NewPulseReport(ps, []node.ID{0, 1})
	if got := rep.MaxSpread(2); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MaxSpread = %v, want 0.1", got)
	}
}

func TestEnvelopeRatesPerfectClock(t *testing.T) {
	// Pulses exactly at real time k (rate 1 clock), value k*P with P=1.
	var ps []node.PulseRecord
	for k := 1; k <= 10; k++ {
		ps = append(ps, node.PulseRecord{Node: 0, Round: k, Real: float64(k), Logical: float64(k)})
		ps = append(ps, node.PulseRecord{Node: 1, Round: k, Real: float64(k) * 1.01, Logical: float64(k)})
	}
	lo, hi, err := EnvelopeRates(ps, []node.ID{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lo-1/1.01) > 1e-9 {
		t.Fatalf("lo = %v, want %v", lo, 1/1.01)
	}
	if math.Abs(hi-1) > 1e-9 {
		t.Fatalf("hi = %v, want 1", hi)
	}
}

func TestEnvelopeRatesErrors(t *testing.T) {
	if _, _, err := EnvelopeRates(nil, []node.ID{0}); err == nil {
		t.Fatal("no data accepted")
	}
	ps := []node.PulseRecord{{Node: 0, Round: 1, Real: 1}}
	if _, _, err := EnvelopeRates(ps, []node.ID{0}); err == nil {
		t.Fatal("single point accepted")
	}
}

// --- probe emission and edge cases ---

// TestSkewSamplerEmitsProbeEvents: every tick goes to the engine bus with
// the sampled node count and skew.
func TestSkewSamplerEmitsProbeEvents(t *testing.T) {
	c := testCluster(2)
	NewSkewSampler(c, []node.ID{0, 1}, 0.5)
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
	c := testCluster(2)
	series := attachSeries(c)
	s := NewSkewSampler(c, []node.ID{0, 1}, 1.0)
	events := 0
	c.Engine.Probes().Attach(probe.Func(func(probe.Event) { events++ }), probe.TypeSkewSample)
	c.Run(0.5)
	s.Stop()
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
	NewBootedSkewSampler(c, 1.0)
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

// TestSkewSamplerPastHorizon: Engine.Run(until) advances time to the
// horizon even when the last tick lands beyond it; the sampler must not
// record a sample past the last processed tick, and resuming the engine
// must resume sampling without a gap.
func TestSkewSamplerPastHorizon(t *testing.T) {
	c := testCluster(2)
	series := attachSeries(c)
	NewSkewSampler(c, []node.ID{0, 1}, 1.0)
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
