package core

import (
	"math"
	"math/rand"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/sig"
)

// silentProto models a crashed/silent faulty process.
type silentProto struct{}

func (silentProto) Start(node.Env)                          {}
func (silentProto) Deliver(node.Env, node.ID, node.Message) {}

// testCluster assembles a cluster of n nodes running the given variant with
// f silent faulty processes (the highest-numbered ids), random-walk clocks
// with initial offsets in [0, params.InitialSkew], and uniform delays.
func testCluster(t *testing.T, p bounds.Params, seed int64) *node.Cluster {
	t.Helper()
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid params: %v", err)
	}
	cfg := ConfigFromBounds(p)
	return node.NewCluster(node.Config{
		N: p.N, F: p.F, Seed: seed,
		Rho:   p.Rho,
		Delay: network.Uniform{Min: p.DMin, Max: p.DMax},
		Clocks: func(i int, rng *rand.Rand) *clock.Hardware {
			offset := rng.Float64() * p.InitialSkew
			return clock.NewHardware(offset, p.Rho,
				clock.RandomWalk{Rho: p.Rho, MinDur: p.Period / 7, MaxDur: p.Period}, rng)
		},
		Protocols: func(i int) node.Protocol {
			if i >= p.N-p.F {
				return silentProto{}
			}
			if p.Variant == bounds.Primitive {
				return NewPrimitive(cfg)
			}
			return NewAuth(cfg)
		},
		Faulty: faultySet(p.N, p.F),
	})
}

func faultySet(n, f int) map[int]bool {
	m := make(map[int]bool)
	for i := n - f; i < n; i++ {
		m[i] = true
	}
	return m
}

// runAndSample starts the cluster, samples the skew among correct nodes
// every interval, and returns the max observed skew.
func runAndSample(c *node.Cluster, horizon, interval float64) float64 {
	c.Start()
	maxSkew := 0.0
	for t := interval; t <= horizon; t += interval {
		c.Run(t)
		ids := c.CorrectIDs()
		if s := c.Skew(ids); s > maxSkew {
			maxSkew = s
		}
	}
	return maxSkew
}

func authParams() bounds.Params {
	return bounds.Params{
		N: 5, F: 2, Variant: bounds.Auth,
		Rho:  clock.Rho(1e-4),
		DMin: 0.002, DMax: 0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
}

func primParams() bounds.Params {
	p := authParams()
	p.N, p.F = 7, 2
	p.Variant = bounds.Primitive
	return p.WithDefaults()
}

func TestAuthAgreementWithinBound(t *testing.T) {
	p := authParams()
	c := testCluster(t, p, 1)
	got := runAndSample(c, 30, 0.05)
	if limit := p.DmaxWithStart(); got > limit {
		t.Fatalf("max skew %v exceeds bound %v", got, limit)
	}
	if got == 0 {
		t.Fatal("skew identically zero: clocks not drifting, test vacuous")
	}
}

func TestPrimitiveAgreementWithinBound(t *testing.T) {
	p := primParams()
	c := testCluster(t, p, 2)
	got := runAndSample(c, 30, 0.05)
	if limit := p.DmaxWithStart(); got > limit {
		t.Fatalf("max skew %v exceeds bound %v", got, limit)
	}
}

func TestAuthLivenessAllRoundsAllNodes(t *testing.T) {
	p := authParams()
	c := testCluster(t, p, 3)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(20.5)
	// Every correct node must have accepted every round 1..19ish; count
	// pulses per round.
	perRound := make(map[int]int)
	maxRound := 0
	for _, r := range pulseLog.Records {
		perRound[r.Round]++
		if r.Round > maxRound {
			maxRound = r.Round
		}
	}
	if maxRound < 18 {
		t.Fatalf("only %d rounds in 20s with P=1", maxRound)
	}
	correct := p.N - p.F
	for k := 1; k < maxRound; k++ { // last round may be mid-flight
		if perRound[k] != correct {
			t.Fatalf("round %d pulsed by %d/%d correct nodes", k, perRound[k], correct)
		}
	}
}

func TestAcceptanceSpreadWithinBeta(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    bounds.Params
	}{
		{"auth", authParams()},
		{"primitive", primParams()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t, tc.p, 4)
			c.Start()
			pulseLog := c.LogPulses()
			c.Run(15)
			first := make(map[int]float64)
			last := make(map[int]float64)
			for _, r := range pulseLog.Records {
				if v, ok := first[r.Round]; !ok || r.Real < v {
					first[r.Round] = r.Real
				}
				if v, ok := last[r.Round]; !ok || r.Real > v {
					last[r.Round] = r.Real
				}
			}
			beta := tc.p.Beta()
			for k := range first {
				if spread := last[k] - first[k]; spread > beta+1e-9 {
					t.Fatalf("round %d spread %v > beta %v", k, spread, beta)
				}
			}
		})
	}
}

func TestPulsePeriodsWithinBounds(t *testing.T) {
	p := authParams()
	c := testCluster(t, p, 5)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(25)
	// Per-node consecutive pulse separation in [Pmin, Pmax].
	byNode := make(map[node.ID][]float64)
	for _, r := range pulseLog.Records {
		byNode[r.Node] = append(byNode[r.Node], r.Real)
	}
	pmin, pmax := p.Pmin(), p.Pmax()
	for id, ts := range byNode {
		for i := 1; i < len(ts); i++ {
			d := ts[i] - ts[i-1]
			if d < pmin-1e-9 || d > pmax+1e-9 {
				t.Fatalf("node %d pulse gap %v outside [%v, %v]", id, d, pmin, pmax)
			}
		}
	}
}

// Unforgeability: no round k is accepted before some correct process's
// logical clock could have read k*P (its evidence must originate there).
func TestUnforgeabilityTiming(t *testing.T) {
	p := authParams()
	c := testCluster(t, p, 6)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(15)
	for _, r := range pulseLog.Records {
		// At acceptance the new value is k*P+alpha; the old clock of the
		// first-ready correct node read k*P at least DMin before any
		// acceptance (evidence needs one hop).
		if r.Real < p.DMin {
			t.Fatalf("round %d accepted at %v, before any message could arrive", r.Round, r.Real)
		}
		wantLogical := float64(r.Round)*p.Period + p.Alpha
		if math.Abs(r.Logical-wantLogical) > 1e-9 {
			t.Fatalf("pulse logical %v, want %v", r.Logical, wantLogical)
		}
	}
}

func TestAuthToleratesMaxFaults(t *testing.T) {
	// n=5 tolerates f=2 silent with authentication (quorum f+1=3 <= n-f=3).
	p := authParams()
	p.F = bounds.Auth.MaxFaults(p.N)
	c := testCluster(t, p, 7)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(10)
	if len(pulseLog.Records) == 0 {
		t.Fatal("no pulses with maximum tolerated faults")
	}
}

func TestPrimitiveToleratesMaxFaults(t *testing.T) {
	p := primParams()
	p.F = bounds.Primitive.MaxFaults(p.N)
	c := testCluster(t, p, 8)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(10)
	if len(pulseLog.Records) == 0 {
		t.Fatal("no pulses with maximum tolerated faults")
	}
}

func TestPrimitiveStallsBeyondResilience(t *testing.T) {
	// n=7 with f_actual=3 > floor((n-1)/3)=2 silent faults: the 2f+1=5
	// quorum over f=2 config... With 4 correct and threshold 5, liveness
	// must fail (but safety — no bogus pulses — holds).
	p := primParams() // configured for f=2
	pActual := p
	pActual.F = 2
	cfg := ConfigFromBounds(pActual)
	c := node.NewCluster(node.Config{
		N: p.N, F: 2, Seed: 9,
		Rho:   p.Rho,
		Delay: network.Uniform{Min: p.DMin, Max: p.DMax},
		Protocols: func(i int) node.Protocol {
			if i >= 4 { // 3 silent faulty: beyond resilience
				return silentProto{}
			}
			return NewPrimitive(cfg)
		},
		Faulty: faultySet(p.N, 3),
	})
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(10)
	if len(pulseLog.Records) != 0 {
		t.Fatalf("pulses fired with only 4 correct of quorum 5: %d", len(pulseLog.Records))
	}
}

func TestZeroFaultConfiguration(t *testing.T) {
	// f=0: quorum of one signature; every node accepts its own round
	// evidence after self-delivery.
	p := bounds.Params{
		N: 3, F: 0, Variant: bounds.Auth,
		Rho: clock.Rho(1e-5), DMin: 0.001, DMax: 0.005,
		Period: 0.5, InitialSkew: 0.002,
	}.WithDefaults()
	c := testCluster(t, p, 10)
	got := runAndSample(c, 10, 0.02)
	if limit := p.DmaxWithStart(); got > limit {
		t.Fatalf("skew %v > bound %v", got, limit)
	}
}

func TestDeterministicReplay(t *testing.T) {
	p := authParams()
	run := func() []node.PulseRecord {
		c := testCluster(t, p, 77)
		c.Start()
		pulseLog := c.LogPulses()
		c.Run(10)
		return pulseLog.Records
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("pulse counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pulse %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProtocolsIgnoreForeignMessages(t *testing.T) {
	p := authParams()
	c := testCluster(t, p, 11)
	c.Start()
	c.Run(0.1)
	// Inject garbage directly; must not panic or change state.
	auth := c.Nodes[0].Protocol().(*AuthProtocol)
	before := auth.LastAccepted()
	auth.Deliver(c.Nodes[0], 1, network.Raw("garbage"))
	auth.Deliver(c.Nodes[0], 1, ReadyMessage(5))
	auth.Deliver(c.Nodes[0], 1, RoundMessage(-1, nil))
	auth.Deliver(c.Nodes[0], 1, RoundMessage(1<<30, nil))
	if auth.LastAccepted() != before {
		t.Fatal("garbage changed acceptance state")
	}

	pp := primParams()
	c2 := testCluster(t, pp, 12)
	c2.Start()
	c2.Run(0.1)
	prim := c2.Nodes[0].Protocol().(*PrimitiveProtocol)
	before = prim.LastAccepted()
	prim.Deliver(c2.Nodes[0], 1, network.Raw("garbage"))
	prim.Deliver(c2.Nodes[0], 1, RoundMessage(2, nil))
	prim.Deliver(c2.Nodes[0], 1, ReadyMessage(-3))
	if prim.LastAccepted() != before {
		t.Fatal("garbage changed primitive acceptance state")
	}
}

func TestForgedSignaturesRejected(t *testing.T) {
	p := authParams()
	c := testCluster(t, p, 13)
	c.Start()
	c.Run(0.01)
	auth := c.Nodes[0].Protocol().(*AuthProtocol)
	// f+1 = 3 entries with garbage signatures for a future round.
	msg := RoundMessage(3, []SignedEntry{
		{Signer: 1, Sig: []byte("forged")},
		{Signer: 2, Sig: []byte("forged")},
		{Signer: 3, Sig: []byte("forged")},
	})
	auth.Deliver(c.Nodes[0], 4, msg)
	if auth.LastAccepted() != 0 {
		t.Fatal("forged signatures triggered acceptance")
	}
	// Signatures for round 2 do not validate round 3.
	wrong := RoundMessage(3, []SignedEntry{
		{Signer: 1, Sig: c.Nodes[1].Sign(roundPayload(2))},
		{Signer: 2, Sig: c.Nodes[2].Sign(roundPayload(2))},
		{Signer: 3, Sig: c.Nodes[3].Sign(roundPayload(2))},
	})
	auth.Deliver(c.Nodes[0], 4, wrong)
	if auth.LastAccepted() != 0 {
		t.Fatal("cross-round signatures triggered acceptance")
	}
	// Duplicate signers must not fill the quorum.
	s1 := c.Nodes[1].Sign(roundPayload(3))
	dup := RoundMessage(3, []SignedEntry{
		{Signer: 1, Sig: s1}, {Signer: 1, Sig: s1}, {Signer: 1, Sig: s1},
	})
	auth.Deliver(c.Nodes[0], 4, dup)
	if auth.LastAccepted() != 0 {
		t.Fatal("duplicate signers filled the quorum")
	}
}

// TestSchemeIndependence runs the same cluster under HMAC and Ed25519
// signatures: the protocol's observable behaviour (pulse times, rounds)
// must be identical — the algorithm depends only on the unforgeability
// axiom, not the scheme.
func TestSchemeIndependence(t *testing.T) {
	p := authParams()
	run := func(scheme sig.Scheme) []node.PulseRecord {
		cfg := ConfigFromBounds(p)
		c := node.NewCluster(node.Config{
			N: p.N, F: p.F, Seed: 55,
			Rho:    p.Rho,
			Scheme: scheme,
			Delay:  network.Uniform{Min: p.DMin, Max: p.DMax},
			Clocks: func(i int, rng *rand.Rand) *clock.Hardware {
				offset := rng.Float64() * p.InitialSkew
				return clock.NewHardware(offset, p.Rho,
					clock.RandomWalk{Rho: p.Rho, MinDur: p.Period / 7, MaxDur: p.Period}, rng)
			},
			Protocols: func(i int) node.Protocol {
				if i >= p.N-p.F {
					return silentProto{}
				}
				return NewAuth(cfg)
			},
			Faulty: faultySet(p.N, p.F),
		})
		c.Start()
		pulseLog := c.LogPulses()
		c.Run(10)
		return pulseLog.Records
	}
	hm := run(sig.NewHMAC(p.N, 55))
	ed := run(sig.NewEd25519(p.N, 55))
	if len(hm) != len(ed) {
		t.Fatalf("pulse counts differ: hmac %d vs ed25519 %d", len(hm), len(ed))
	}
	for i := range hm {
		if hm[i] != ed[i] {
			t.Fatalf("pulse %d differs: %+v vs %+v", i, hm[i], ed[i])
		}
	}
}

func TestMaxRoundAheadBoundsMemory(t *testing.T) {
	p := authParams()
	cfg := ConfigFromBounds(p)
	cfg.MaxRoundAhead = 8
	auth := NewAuth(cfg)
	c := node.NewCluster(node.Config{
		N: p.N, F: p.F, Seed: 30,
		Delay: network.Fixed{D: 0.001},
		Protocols: func(i int) node.Protocol {
			if i == 0 {
				return auth
			}
			return silentProto{}
		},
	})
	c.Start()
	c.Run(0.01)
	// A spammer floods evidence for thousands of future rounds; only the
	// window survives.
	for k := 1; k <= 5000; k++ {
		auth.Deliver(c.Nodes[0], 1, RoundMessage(k, []SignedEntry{
			{Signer: 1, Sig: c.Nodes[1].Sign(roundPayload(k))},
		}))
	}
	if got := len(auth.evidence); got > cfg.MaxRoundAhead {
		t.Fatalf("evidence retained for %d rounds, cap %d", got, cfg.MaxRoundAhead)
	}

	prim := NewPrimitive(cfg)
	c2 := node.NewCluster(node.Config{
		N: 7, F: 2, Seed: 31,
		Delay: network.Fixed{D: 0.001},
		Protocols: func(i int) node.Protocol {
			if i == 0 {
				return prim
			}
			return silentProto{}
		},
	})
	c2.Start()
	c2.Run(0.01)
	for k := 1; k <= 5000; k++ {
		prim.Deliver(c2.Nodes[0], 1, ReadyMessage(k))
	}
	if got := len(prim.readyFrom); got > cfg.MaxRoundAhead {
		t.Fatalf("ready state retained for %d rounds, cap %d", got, cfg.MaxRoundAhead)
	}
}

func TestReplayedOldEvidenceIgnored(t *testing.T) {
	// Once round k is accepted, replays of rounds <= k are discarded and
	// do not resurrect state.
	p := authParams()
	c := testCluster(t, p, 32)
	c.Start()
	c.Run(3.5) // a few rounds in
	auth := c.Nodes[0].Protocol().(*AuthProtocol)
	accepted := auth.LastAccepted()
	if accepted < 2 {
		t.Fatalf("only %d rounds accepted", accepted)
	}
	for k := 1; k <= accepted; k++ {
		auth.Deliver(c.Nodes[0], 1, RoundMessage(k, []SignedEntry{
			{Signer: 1, Sig: c.Nodes[1].Sign(roundPayload(k))},
			{Signer: 2, Sig: c.Nodes[2].Sign(roundPayload(k))},
			{Signer: 3, Sig: c.Nodes[3].Sign(roundPayload(k))},
		}))
	}
	if auth.LastAccepted() != accepted {
		t.Fatal("replayed evidence changed acceptance state")
	}
	for r := range auth.evidence {
		if r <= accepted {
			t.Fatalf("stale evidence retained for round %d", r)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero period":    {Period: 0},
		"negative alpha": {Period: 1, Alpha: -0.1},
		"alpha>=period":  {Period: 1, Alpha: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewAuth did not panic", name)
				}
			}()
			NewAuth(cfg)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: NewPrimitive did not panic", name)
				}
			}()
			NewPrimitive(cfg)
		}()
	}
}

func TestRoundPayloadDistinct(t *testing.T) {
	seen := map[string]bool{}
	for k := -2; k < 100; k++ {
		s := string(roundPayload(k))
		if seen[s] {
			t.Fatalf("payload collision at round %d", k)
		}
		seen[s] = true
	}
}

func TestOnAcceptHooks(t *testing.T) {
	p := authParams()
	cfg := ConfigFromBounds(p)
	var authRounds, primRounds []int
	a := NewAuth(cfg)
	a.OnAccept = func(k int) { authRounds = append(authRounds, k) }
	pr := NewPrimitive(cfg)
	pr.OnAccept = func(k int) { primRounds = append(primRounds, k) }

	c := node.NewCluster(node.Config{
		N: 5, F: 2, Seed: 20,
		Rho:   p.Rho,
		Delay: network.Uniform{Min: p.DMin, Max: p.DMax},
		Protocols: func(i int) node.Protocol {
			if i == 0 {
				return a
			}
			return NewAuth(cfg)
		},
	})
	c.Start()
	c.Run(5)
	if len(authRounds) < 3 {
		t.Fatalf("OnAccept fired %d times", len(authRounds))
	}
	for i := 1; i < len(authRounds); i++ {
		if authRounds[i] != authRounds[i-1]+1 {
			t.Fatalf("acceptances not consecutive: %v", authRounds)
		}
	}
	_ = primRounds // primitive hook covered in harness tests
}
