package core

import (
	"math/rand"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/node"
)

// coldCluster builds a cluster whose hardware clocks are arbitrarily wrong
// (offsets up to maxOffset) and whose nodes boot at staggered times, with
// ColdStart enabled.
func coldCluster(t *testing.T, p bounds.Params, maxOffset float64, startAt map[int]float64, seed int64) *node.Cluster {
	t.Helper()
	cfg := ConfigFromBounds(p)
	cfg.ColdStart = true
	return node.NewCluster(node.Config{
		N: p.N, F: p.F, Seed: seed,
		Rho:   p.Rho,
		Delay: network.Uniform{Min: p.DMin, Max: p.DMax},
		Clocks: func(i int, rng *rand.Rand) *clock.Hardware {
			return clock.NewHardware(rng.Float64()*maxOffset, p.Rho,
				clock.RandomWalk{Rho: p.Rho, MinDur: p.Period / 7, MaxDur: p.Period}, rng)
		},
		Protocols: func(i int) node.Protocol {
			if i >= p.N-p.F {
				return silentProto{}
			}
			return NewAuth(cfg)
		},
		Faulty:  faultySet(p.N, p.F),
		StartAt: startAt,
	})
}

func TestColdStartSynchronizesArbitraryClocks(t *testing.T) {
	p := authParams()
	// Hardware clocks up to 100 s wrong — no initial synchrony whatsoever.
	c := coldCluster(t, p, 100, nil, 21)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(10)
	ids := c.CorrectIDs()
	for _, id := range ids {
		if !c.Nodes[id].Protocol().(*AuthProtocol).Synchronized() {
			t.Fatalf("node %d never synchronized", id)
		}
	}
	// After cold start + a few rounds, skew is governed by the usual bound.
	if skew := c.Skew(ids); skew > p.Dmax() {
		t.Fatalf("post-cold-start skew %v > %v", skew, p.Dmax())
	}
	if len(pulseLog.Records) == 0 {
		t.Fatal("no rounds after cold start")
	}
}

func TestColdStartStaggeredBoots(t *testing.T) {
	p := authParams()
	// Correct nodes boot over a 3-second window; the last one boots after
	// the others are already running rounds and must integrate.
	startAt := map[int]float64{0: 0, 1: 0.4, 2: 3.0}
	c := coldCluster(t, p, 50, startAt, 22)
	c.Start()
	c.Run(12)
	ids := c.CorrectIDs()
	if len(ids) != 3 {
		t.Fatalf("correct ids = %v", ids)
	}
	for _, id := range ids {
		if !c.Nodes[id].Protocol().(*AuthProtocol).Synchronized() {
			t.Fatalf("node %d never synchronized", id)
		}
	}
	if skew := c.Skew(ids); skew > p.Dmax() {
		t.Fatalf("skew %v > %v after staggered cold start", skew, p.Dmax())
	}
}

func TestColdStartNoQuorumNoProgress(t *testing.T) {
	// With only f correct nodes booted, the awake quorum f+1 cannot form
	// (faulty are silent): nobody may start the round schedule.
	p := authParams()                   // n=5, f=2
	startAt := map[int]float64{2: 1000} // third correct node boots far away
	c := coldCluster(t, p, 10, startAt, 23)
	c.Start()
	pulseLog := c.LogPulses()
	c.Run(50)
	if len(pulseLog.Records) != 0 {
		t.Fatalf("%d pulses with only f correct nodes up", len(pulseLog.Records))
	}
	for _, id := range []node.ID{0, 1} {
		if c.Nodes[id].Protocol().(*AuthProtocol).Synchronized() {
			t.Fatalf("node %d synchronized without a quorum", id)
		}
	}
}

func TestColdStartForgedAwakeRejected(t *testing.T) {
	p := authParams()
	c := coldCluster(t, p, 10, map[int]float64{1: 500, 2: 500}, 24)
	c.Start()
	c.Run(0.5)
	auth := c.Nodes[0].Protocol().(*AuthProtocol)
	// Forged awake signatures must not complete the quorum.
	auth.Deliver(c.Nodes[0], 3, AwakeMessage([]SignedEntry{
		{Signer: 1, Sig: []byte("forged")},
		{Signer: 2, Sig: []byte("forged")},
	}))
	if auth.Synchronized() {
		t.Fatal("forged awake evidence synchronized the node")
	}
	// Genuine signatures (the adversary controls faulty keys 3, 4) do
	// count — f+1 = 3 total with node 0's own.
	auth.Deliver(c.Nodes[0], 3, AwakeMessage([]SignedEntry{
		{Signer: 3, Sig: c.Nodes[3].Sign(awakePayload())},
		{Signer: 4, Sig: c.Nodes[4].Sign(awakePayload())},
	}))
	if !auth.Synchronized() {
		t.Fatal("valid awake quorum did not synchronize")
	}
}

func TestColdStartOnSynchronizedHook(t *testing.T) {
	p := authParams()
	cfg := ConfigFromBounds(p)
	cfg.ColdStart = true
	fired := 0
	protos := make([]*AuthProtocol, 0, p.N)
	c := node.NewCluster(node.Config{
		N: p.N, F: p.F, Seed: 25,
		Rho:   p.Rho,
		Delay: network.Uniform{Min: p.DMin, Max: p.DMax},
		Protocols: func(i int) node.Protocol {
			a := NewAuth(cfg)
			a.OnSynchronized = func() { fired++ }
			protos = append(protos, a)
			return a
		},
	})
	c.Start()
	c.Run(2)
	if fired != p.N {
		t.Fatalf("OnSynchronized fired %d times, want %d", fired, p.N)
	}
}

// testSelectiveSigner is a minimal in-package copy of the selective-
// signing adversary (the adversary package imports core, so it cannot be
// imported from core's in-package tests): it signs each round early and
// serves the signature to a single target.
type testSelectiveSigner struct {
	cfg    Config
	target node.ID
	rounds int
}

func (s *testSelectiveSigner) Start(env node.Env) {
	for k := 1; k <= s.rounds; k++ {
		k := k
		env.AtLogical(float64(k)*s.cfg.Period-s.cfg.Period/4, func() {
			entry := SignedEntry{Signer: env.ID(), Sig: env.Sign(RoundPayload(k))}
			env.Send(s.target, RoundMessage(k, []SignedEntry{entry}))
		})
	}
}

func (s *testSelectiveSigner) Deliver(node.Env, node.ID, node.Message) {}

func TestDisableRelayWidensSpread(t *testing.T) {
	// Ablation: faulty signers serve their signatures only to node 0, so
	// node 0 accepts the instant the first correct process signs. With
	// the relay step, everyone else follows within one delay (spread <=
	// beta = dmax). Without it, the others must assemble a quorum from
	// f+1 = 3 correct signers — i.e. wait for the slowest correct clock —
	// and the spread (hence the skew) escapes the bound.
	p := authParams()
	run := func(disable bool, seed int64) (spread, skew float64) {
		cfg := ConfigFromBounds(p)
		cfg.DisableRelay = disable
		c := node.NewCluster(node.Config{
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
					return &testSelectiveSigner{cfg: cfg, target: 0, rounds: 25}
				}
				return NewAuth(cfg)
			},
			Faulty: faultySet(p.N, p.F),
		})
		c.Start()
		pulseLog := c.LogPulses()
		maxSkew := 0.0
		for tt := 0.05; tt <= 20; tt += 0.05 {
			c.Run(tt)
			if s := c.Skew(c.CorrectIDs()); s > maxSkew {
				maxSkew = s
			}
		}
		first := make(map[int]float64)
		last := make(map[int]float64)
		count := make(map[int]int)
		for _, rec := range pulseLog.Records {
			if v, ok := first[rec.Round]; !ok || rec.Real < v {
				first[rec.Round] = rec.Real
			}
			if v, ok := last[rec.Round]; !ok || rec.Real > v {
				last[rec.Round] = rec.Real
			}
			count[rec.Round]++
		}
		for k := range first {
			if count[k] != p.N-p.F {
				continue // incomplete round
			}
			if s := last[k] - first[k]; s > spread {
				spread = s
			}
		}
		return spread, maxSkew
	}
	relaySpread, relaySkew := run(false, 7)
	noRelaySpread, noRelaySkew := run(true, 7)
	if relaySpread > p.Beta()+1e-9 {
		t.Fatalf("relay-mode spread %v exceeds beta %v", relaySpread, p.Beta())
	}
	if relaySkew > p.DmaxWithStart() {
		t.Fatalf("relay-mode skew %v exceeds Dmax %v", relaySkew, p.DmaxWithStart())
	}
	if noRelaySpread <= relaySpread {
		t.Fatalf("relay ablation did not widen spread: %v <= %v", noRelaySpread, relaySpread)
	}
	if noRelaySkew <= relaySkew {
		t.Fatalf("relay ablation did not widen skew: %v <= %v", noRelaySkew, relaySkew)
	}
}
