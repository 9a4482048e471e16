package baseline

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"optsync/internal/clock"
	"optsync/internal/network"
	"optsync/internal/node"
)

func testConfig() Config {
	return Config{
		Period: 1.0,
		Window: 0.1,
		DMin:   0.002, DMax: 0.01,
		F: 1,
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero period":    {Period: 0, Window: 0.1, DMax: 1},
		"zero window":    {Period: 1, Window: 0, DMax: 1},
		"window>=period": {Period: 1, Window: 1, DMax: 1},
		"bad delays":     {Period: 1, Window: 0.1, DMin: 2, DMax: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: New did not panic", name)
				}
			}()
			New(cfg, &FTM{})
		}()
	}
}

func TestCNVAdjustEgocentric(t *testing.T) {
	c := &CNV{Delta: 1.0}
	offsets := map[node.ID]float64{
		1: 0.5,  // accepted
		2: -0.5, // accepted
		3: 5.0,  // outlier: replaced by own 0
	}
	// n=5: (0.5 - 0.5 + 0 + 0 + 0)/5 = 0.
	if got := c.Adjust(offsets, 0, 5); got != 0 {
		t.Fatalf("Adjust = %v, want 0", got)
	}
	offsets = map[node.ID]float64{1: 0.6}
	if got := c.Adjust(offsets, 0, 3); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("Adjust = %v, want 0.2", got)
	}
	if c.Name() != "cnv" {
		t.Fatal("name")
	}
}

func TestFTMAdjustMidpoint(t *testing.T) {
	m := &FTM{F: 1}
	offsets := map[node.ID]float64{
		1: -0.4, 2: 0.2, 3: 0.6, 4: 9.9, // 9.9 is Byzantine
	}
	// vals sorted: [-0.4, 0, 0.2, 0.6, 9.9]; trim 1 each side -> [0, 0.2, 0.6]
	// midpoint of extremes: 0.3.
	if got := m.Adjust(offsets, 0, 5); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("Adjust = %v, want 0.3", got)
	}
	if m.Name() != "ftm" {
		t.Fatal("name")
	}
}

func TestFTMAdjustTooFewReadings(t *testing.T) {
	m := &FTM{F: 2}
	// Only 3 readings (own + 2) with F=2: 2*F >= len, hold at 0.
	offsets := map[node.ID]float64{1: 5, 2: -5}
	if got := m.Adjust(offsets, 0, 7); got != 0 {
		t.Fatalf("Adjust = %v, want 0 (hold)", got)
	}
}

// Property: FTM's adjustment is always within the range of the non-discarded
// readings, hence within [min, max] of all readings — Byzantine values
// cannot drag the clock beyond the correct extremes when there are at most
// F of them.
func TestFTMBoundedByExtremesProperty(t *testing.T) {
	f := func(raw []int16, fRaw uint8) bool {
		ff := int(fRaw%3) + 1
		m := &FTM{F: ff}
		offsets := make(map[node.ID]float64, len(raw))
		for i, r := range raw {
			offsets[node.ID(i+1)] = float64(r) / 100
		}
		got := m.Adjust(offsets, 0, len(offsets)+1)
		vals := []float64{0}
		for _, o := range offsets {
			vals = append(vals, o)
		}
		sort.Float64s(vals)
		if len(vals) <= 2*ff {
			return got == 0
		}
		// Within the trimmed range.
		return got >= vals[ff]-1e-12 && got <= vals[len(vals)-1-ff]+1e-12
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(47))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: CNV's adjustment is bounded by Delta (every accepted term is,
// and the mean over n includes zeros).
func TestCNVBoundedByDeltaProperty(t *testing.T) {
	f := func(raw []int16, deltaRaw uint8) bool {
		delta := float64(deltaRaw%50+1) / 10
		c := &CNV{Delta: delta}
		offsets := make(map[node.ID]float64, len(raw))
		for i, r := range raw {
			offsets[node.ID(i+1)] = float64(r) / 100
		}
		got := c.Adjust(offsets, 0, len(offsets)+1)
		return math.Abs(got) <= delta+1e-12
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(53))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func buildCluster(t *testing.T, n int, mk func() *Protocol) *node.Cluster {
	t.Helper()
	rho := clock.Rho(1e-4)
	return node.NewCluster(node.Config{
		N: n, F: 1, Seed: 9,
		Rho:   rho,
		Delay: network.Uniform{Min: 0.002, Max: 0.01},
		Clocks: func(i int, rng *rand.Rand) *clock.Hardware {
			return clock.NewHardware(rng.Float64()*0.01, rho,
				clock.RandomWalk{Rho: rho, MinDur: 0.2, MaxDur: 1}, rng)
		},
		Protocols: func(i int) node.Protocol { return mk() },
	})
}

func TestCNVConverges(t *testing.T) {
	c := buildCluster(t, 5, func() *Protocol { return NewCNV(testConfig(), 0.1) })
	c.Start()
	c.Run(20)
	ids := []node.ID{0, 1, 2, 3, 4}
	if skew := c.Skew(ids); skew > 0.02 {
		t.Fatalf("CNV did not converge: skew %v", skew)
	}
	// Rounds progressed on all nodes.
	for _, nd := range c.Nodes {
		if r := nd.Protocol().(*Protocol).Round(); r < 18 {
			t.Fatalf("node %d only reached round %d", nd.ID(), r)
		}
	}
}

func TestFTMConverges(t *testing.T) {
	c := buildCluster(t, 5, func() *Protocol { return NewFTM(testConfig()) })
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(20)
	ids := []node.ID{0, 1, 2, 3, 4}
	if skew := c.Skew(ids); skew > 0.02 {
		t.Fatalf("FTM did not converge: skew %v", skew)
	}
	if len(pulseLog.Records) == 0 {
		t.Fatal("no pulses recorded")
	}
}

func TestFTMTightensLargeInitialSkew(t *testing.T) {
	rho := clock.Rho(1e-4)
	c := node.NewCluster(node.Config{
		N: 5, F: 1, Seed: 10,
		Rho:   rho,
		Delay: network.Uniform{Min: 0.002, Max: 0.01},
		Clocks: func(i int, rng *rand.Rand) *clock.Hardware {
			// Initial offsets spread over 60 ms.
			return clock.NewConstant(float64(i)*0.015, 1, rho)
		},
		Protocols: func(i int) node.Protocol { return NewFTM(testConfig()) },
	})
	c.Start()
	ids := []node.ID{0, 1, 2, 3, 4}
	before := c.Skew(ids)
	c.Run(20)
	after := c.Skew(ids)
	if after >= before/3 {
		t.Fatalf("FTM did not tighten skew: %v -> %v", before, after)
	}
}

func TestDeliverRejectsGarbage(t *testing.T) {
	c := buildCluster(t, 3, func() *Protocol { return NewFTM(testConfig()) })
	c.Start()
	c.Run(0.1)
	p := c.Nodes[0].Protocol().(*Protocol)
	before := p.Round()
	p.Deliver(c.Nodes[0], 1, network.Raw("garbage"))
	p.Deliver(c.Nodes[0], 1, ClockMessage(99, 1))
	p.Deliver(c.Nodes[0], 1, ClockMessage(1, math.NaN()))
	p.Deliver(c.Nodes[0], 1, ClockMessage(1, math.Inf(1)))
	p.Deliver(c.Nodes[0], 0, ClockMessage(1, 1)) // own echo
	if p.Round() != before {
		t.Fatal("garbage advanced the round")
	}
	if len(p.offsets) != 0 {
		t.Fatalf("garbage was collected: %v", p.offsets)
	}
	p.Deliver(c.Nodes[0], 1, ClockMessage(1, 1)) // valid
	if len(p.offsets) != 1 {
		t.Fatalf("valid reading not collected: %v", p.offsets)
	}
}
