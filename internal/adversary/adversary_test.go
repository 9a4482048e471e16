package adversary

import (
	"testing"

	"optsync/internal/baseline"
	"optsync/internal/clock"
	"optsync/internal/core"
	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/node"
)

func authCfg() core.Config {
	p := bounds.Params{
		N: 5, F: 2, Variant: bounds.Auth,
		Rho: clock.Rho(1e-4), DMin: 0.002, DMax: 0.01,
		Period: 1, InitialSkew: 0.005,
	}.WithDefaults()
	return core.ConfigFromBounds(p)
}

func newCluster(n, f int, protos func(i int) node.Protocol) *node.Cluster {
	return node.NewCluster(node.Config{
		N: n, F: f, Seed: 3,
		Rho:       clock.Rho(1e-4),
		Delay:     network.Uniform{Min: 0.002, Max: 0.01},
		Protocols: protos,
	})
}

func TestSilentSendsNothing(t *testing.T) {
	c := newCluster(2, 0, func(i int) node.Protocol { return Silent{} })
	c.Start()
	c.Run(5)
	if s := c.NetStats(); s.Sent != 0 {
		t.Fatalf("Silent sent %d messages", s.Sent)
	}
}

func TestCrashAtStopsOutput(t *testing.T) {
	cfg := authCfg()
	c := newCluster(3, 1, func(i int) node.Protocol {
		if i == 0 {
			return &CrashAt{Inner: core.NewAuth(cfg), At: 2.5}
		}
		return core.NewAuth(cfg)
	})
	c.Start()
	c.Run(2.4)
	sentBefore := c.NetStats().BySender[0]
	if sentBefore == 0 {
		t.Fatal("crashing node never sent before the deadline")
	}
	c.Run(10)
	sentAfter := c.NetStats().BySender[0]
	if sentAfter != sentBefore {
		t.Fatalf("node sent %d messages after crashing", sentAfter-sentBefore)
	}
}

func TestCrashAtMuzzlesDirectSends(t *testing.T) {
	// A protocol that direct-Sends on every deliver; after the crash
	// deadline both input processing and output must stop.
	inner := &senderProto{}
	c := newCluster(2, 0, func(i int) node.Protocol {
		if i == 0 {
			return &CrashAt{Inner: inner, At: 1.0}
		}
		return Silent{}
	})
	c.Start()
	crashed := &CrashAt{Inner: inner, At: 0}
	// Before the deadline, Send passes through.
	env := c.Nodes[0]
	c.Run(0.5)
	before := c.NetStats().Sent
	c.Nodes[0].Protocol().(*CrashAt).Deliver(env, 1, network.Raw("poke"))
	if got := c.NetStats().Sent; got != before+1 {
		t.Fatalf("pre-crash deliver sent %d messages, want 1", got-before)
	}
	// After the deadline, both Deliver and Send are dead.
	c.Run(2)
	before = c.NetStats().Sent
	c.Nodes[0].Protocol().(*CrashAt).Deliver(env, 1, network.Raw("poke"))
	if got := c.NetStats().Sent; got != before {
		t.Fatal("post-crash deliver produced output")
	}
	crashed.Start(env) // deadline 0: Start's sends are muzzled too
	if got := c.NetStats().Sent; got != before {
		t.Fatal("post-crash start produced output")
	}
}

// senderProto sends a direct message on boot and on every delivery.
type senderProto struct{}

func (senderProto) Start(env node.Env) { env.Send((env.ID()+1)%env.N(), network.Raw("boot")) }
func (senderProto) Deliver(env node.Env, _ node.ID, _ node.Message) {
	env.Send((env.ID()+1)%env.N(), network.Raw("reply"))
}

func TestCollusionJoinIdempotent(t *testing.T) {
	col := NewCollusion()
	c := newCluster(2, 0, func(i int) node.Protocol { return Silent{} })
	c.Start()
	col.join(c.Nodes[0])
	col.join(c.Nodes[0]) // duplicate join is a no-op
	if col.Size() != 1 {
		t.Fatalf("Size = %d after duplicate join", col.Size())
	}
}

func TestCollusionEvidence(t *testing.T) {
	col := NewCollusion()
	c := newCluster(4, 1, func(i int) node.Protocol {
		if i >= 2 {
			return &AuthRush{Coalition: col, Leader: i == 2, Interval: 0.5, Rounds: 3}
		}
		return core.NewAuth(authCfg())
	})
	c.Start()
	c.Run(0.01)
	if col.Size() != 2 {
		t.Fatalf("coalition size = %d, want 2", col.Size())
	}
	ev := col.evidence(1)
	if len(ev) != 2 {
		t.Fatalf("evidence entries = %d", len(ev))
	}
	// Signatures must verify against the canonical payload.
	payload := core.RoundPayload(1)
	for _, e := range ev {
		if !c.Nodes[0].Verify(e.Signer, payload, e.Sig) {
			t.Fatalf("coalition signature by %d does not verify", e.Signer)
		}
	}
	// Deterministic signer order.
	if ev[0].Signer >= ev[1].Signer {
		t.Fatalf("evidence not sorted: %d, %d", ev[0].Signer, ev[1].Signer)
	}
}

func TestAuthRushWithinResilienceHarmless(t *testing.T) {
	// f_actual = f_config = 2 on n=5: coalition evidence carries only 2 < 3
	// signatures; correct processes must not accept rounds early.
	col := NewCollusion()
	cfg := authCfg()
	c := newCluster(5, 2, func(i int) node.Protocol {
		if i >= 3 {
			return &AuthRush{Coalition: col, Leader: i == 3, Interval: 0.1, Rounds: 50}
		}
		return core.NewAuth(cfg)
	})
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(0.95) // before any correct clock reaches P
	if len(pulseLog.Records) != 0 {
		t.Fatalf("%d pulses before any correct clock was due", len(pulseLog.Records))
	}
}

func TestAuthRushBeyondResilienceForcesEarlyRounds(t *testing.T) {
	// f_actual = 3 > f_config = 2 on n=5: the coalition forges quorums.
	col := NewCollusion()
	cfg := authCfg()
	c := newCluster(5, 2, func(i int) node.Protocol {
		if i >= 2 {
			return &AuthRush{Coalition: col, Leader: i == 2, Interval: 0.1, Rounds: 50}
		}
		return core.NewAuth(cfg)
	})
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(0.95)
	if len(pulseLog.Records) == 0 {
		t.Fatal("forged quorum did not trigger early acceptance")
	}
}

func TestPrimRushBeyondResilienceForcesEarlyRounds(t *testing.T) {
	p := bounds.Params{
		N: 7, F: 2, Variant: bounds.Primitive,
		Rho: clock.Rho(1e-4), DMin: 0.002, DMax: 0.01,
		Period: 1, InitialSkew: 0.005,
	}.WithDefaults()
	cfg := core.ConfigFromBounds(p)
	c := newCluster(7, 2, func(i int) node.Protocol {
		if i >= 4 { // 3 = f_config+1 rushers
			return &PrimRush{Interval: 0.1, Rounds: 50}
		}
		return core.NewPrimitive(cfg)
	})
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(0.95)
	if len(pulseLog.Records) == 0 {
		t.Fatal("ready flood did not trigger early acceptance")
	}
}

func TestPrimRushWithinResilienceHarmless(t *testing.T) {
	p := bounds.Params{
		N: 7, F: 2, Variant: bounds.Primitive,
		Rho: clock.Rho(1e-4), DMin: 0.002, DMax: 0.01,
		Period: 1, InitialSkew: 0.005,
	}.WithDefaults()
	cfg := core.ConfigFromBounds(p)
	c := newCluster(7, 2, func(i int) node.Protocol {
		if i >= 5 { // only f_config = 2 rushers: below the join threshold
			return &PrimRush{Interval: 0.1, Rounds: 50}
		}
		return core.NewPrimitive(cfg)
	})
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(0.95)
	if len(pulseLog.Records) != 0 {
		t.Fatalf("%d pulses before any correct clock was due", len(pulseLog.Records))
	}
}

func TestBiasedReporterShiftsOnlyClockMessages(t *testing.T) {
	bcfg := baseline.Config{Period: 1, Window: 0.1, DMin: 0.002, DMax: 0.01, F: 1}
	var captured []node.Message
	c := newCluster(3, 1, func(i int) node.Protocol {
		if i == 0 {
			return &BiasedReporter{Inner: baseline.NewFTM(bcfg), Bias: 0.5}
		}
		return collectProto{&captured}
	})
	c.Start()
	c.Run(1.2) // past the first broadcast at logical 1.0
	var seen bool
	for _, m := range captured {
		if m.Kind == baseline.KindClock {
			seen = true
			// Value was ~1.0 at send; bias pushes it to ~1.5.
			if m.Value < 1.4 || m.Value > 1.6 {
				t.Fatalf("biased value = %v, want ~1.5", m.Value)
			}
		}
	}
	if !seen {
		t.Fatal("no ClockMessage captured")
	}
}

type collectProto struct{ sink *[]node.Message }

func (collectProto) Start(node.Env) {}
func (c collectProto) Deliver(_ node.Env, _ node.ID, m node.Message) {
	*c.sink = append(*c.sink, m)
}

func TestSelectiveSignerForcesRelayPathSkew(t *testing.T) {
	// n=5, f=2 selective signers serving only node 0: nodes 1, 2 must wait
	// for node 0's relay, one full message delay behind. Acceptance spread
	// approaches dmax even though delays are nearly uniform.
	const dmax = 0.05
	p := bounds.Params{
		N: 5, F: 2, Variant: bounds.Auth,
		Rho: clock.Rho(1e-4), DMin: dmax * 0.9, DMax: dmax,
		Period: 1, InitialSkew: 0.001,
	}.WithDefaults()
	cfg := core.ConfigFromBounds(p)
	c := node.NewCluster(node.Config{
		N: 5, F: 2, Seed: 8,
		Rho:   p.Rho,
		Delay: network.Uniform{Min: p.DMin, Max: p.DMax},
		Protocols: func(i int) node.Protocol {
			if i >= 3 {
				return &SelectiveSigner{Cfg: cfg, Targets: map[node.ID]bool{0: true}, Rounds: 10, Lead: 0.25}
			}
			return core.NewAuth(cfg)
		},
	})
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(8)
	first := make(map[int]float64)
	last := make(map[int]float64)
	for _, rec := range pulseLog.Records {
		if rec.Node >= 3 {
			continue
		}
		if v, ok := first[rec.Round]; !ok || rec.Real < v {
			first[rec.Round] = rec.Real
		}
		if v, ok := last[rec.Round]; !ok || rec.Real > v {
			last[rec.Round] = rec.Real
		}
	}
	if len(first) < 5 {
		t.Fatalf("only %d rounds completed", len(first))
	}
	var maxSpread float64
	for k := range first {
		if s := last[k] - first[k]; s > maxSpread {
			maxSpread = s
		}
	}
	// Relay path: spread must be near a full dmax (far above u = 0.005)
	// yet within the beta = dmax bound.
	if maxSpread < dmax*0.8 {
		t.Fatalf("spread %v, want ~dmax %v (relay path not exercised)", maxSpread, dmax)
	}
	if maxSpread > dmax+1e-9 {
		t.Fatalf("spread %v exceeds beta %v", maxSpread, dmax)
	}
}

func TestEquivocatorDoesNotBreakAgreement(t *testing.T) {
	cfg := authCfg()
	c := newCluster(5, 2, func(i int) node.Protocol {
		if i >= 3 {
			return &Equivocator{Cfg: cfg, TargetA: 0, TargetB: 1, Rounds: 10}
		}
		return core.NewAuth(cfg)
	})
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(10)
	ids := []node.ID{0, 1, 2}
	if skew := c.Skew(ids); skew > 0.03 {
		t.Fatalf("equivocation broke agreement: skew %v", skew)
	}
	if len(pulseLog.Records) == 0 {
		t.Fatal("no liveness under equivocation")
	}
}
