package lockstep

import (
	"math/rand"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core"
	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/node"
)

func lockstepParams(n int) bounds.Params {
	return bounds.Params{
		N: n, F: bounds.Auth.MaxFaults(n), Variant: bounds.Auth,
		Rho:  clock.Rho(1e-4),
		DMin: 0.002, DMax: 0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
}

func buildCluster(t *testing.T, p bounds.Params, protos func(i int) node.Protocol) *node.Cluster {
	t.Helper()
	return node.NewCluster(node.Config{
		N: p.N, F: p.F, Seed: 17,
		Rho:   p.Rho,
		Delay: network.Uniform{Min: p.DMin, Max: p.DMax},
		Clocks: func(i int, rng *rand.Rand) *clock.Hardware {
			return clock.NewHardware(rng.Float64()*p.InitialSkew, p.Rho,
				clock.RandomWalk{Rho: p.Rho, MinDur: p.Period / 7, MaxDur: p.Period}, rng)
		},
		Protocols: protos,
	})
}

// echoApp broadcasts the round number each round and records what arrives.
type echoApp struct {
	rounds map[int][]node.ID // round -> senders received
}

func (a *echoApp) FirstRound(env node.Env) []Outgoing {
	a.rounds = make(map[int][]node.ID)
	return []Outgoing{{Broadcast: true, Payload: "hello"}}
}

func (a *echoApp) Round(env node.Env, round int, in []Incoming) []Outgoing {
	for _, m := range in {
		a.rounds[round] = append(a.rounds[round], m.From)
	}
	return []Outgoing{{Broadcast: true, Payload: "hello"}}
}

func TestLockStepDeliversFullRounds(t *testing.T) {
	p := lockstepParams(5)
	apps := make([]*echoApp, p.N)
	cfg := core.ConfigFromBounds(p)
	c := buildCluster(t, p, func(i int) node.Protocol {
		apps[i] = &echoApp{}
		return New(cfg, apps[i])
	})
	c.Start()
	c.Run(15)
	// Every process must have received all n messages in every completed
	// round after the first: the lock-step guarantee.
	for i, a := range apps {
		checked := 0
		for round, senders := range a.rounds {
			if round < 3 || round > 12 {
				continue // skip warm-up and the in-flight tail
			}
			if len(senders) != p.N {
				t.Fatalf("node %d round %d: received %d messages, want %d",
					i, round, len(senders), p.N)
			}
			checked++
		}
		if checked < 8 {
			t.Fatalf("node %d completed only %d full rounds", i, checked)
		}
	}
}

func TestLockStepDropsDuplicateSenders(t *testing.T) {
	p := lockstepParams(5)
	cfg := core.ConfigFromBounds(p)
	app := &echoApp{}
	proto := New(cfg, app)
	c := buildCluster(t, p, func(i int) node.Protocol {
		if i == 0 {
			return proto
		}
		return New(cfg, &echoApp{})
	})
	c.Start()
	c.Run(1.5) // first pulse done
	// Inject three duplicates from sender 1 for the current round.
	k := proto.Rounds()
	before := len(proto.order[k])
	for j := 0; j < 3; j++ {
		proto.Deliver(c.Nodes[0], 1, Envelope(k, "dup"))
	}
	if got := len(proto.order[k]); got > before+1 {
		t.Fatalf("duplicates recorded: %d new entries, want at most 1", got-before)
	}
	if len(proto.order[k]) != len(proto.inbox[k]) {
		t.Fatalf("order/inbox out of sync: %d vs %d", len(proto.order[k]), len(proto.inbox[k]))
	}
}

func TestNewCheckedRejectsShortPeriod(t *testing.T) {
	p := lockstepParams(5)
	p.Period = 0.06 // Pmin < skew+dmax at these delays
	if _, err := NewChecked(p, &echoApp{}); err == nil {
		t.Fatal("short period accepted")
	}
	good := lockstepParams(5)
	if _, err := NewChecked(good, &echoApp{}); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
}

func runDolevStrong(t *testing.T, n int, dealerProto func(cfg core.Config, p bounds.Params) node.Protocol, silentFaults int) []*DolevStrong {
	t.Helper()
	p := lockstepParams(n)
	cfg := core.ConfigFromBounds(p)
	apps := make([]*DolevStrong, n)
	c := buildCluster(t, p, func(i int) node.Protocol {
		if i == 0 && dealerProto != nil {
			return dealerProto(cfg, p)
		}
		if i >= n-silentFaults {
			return silentProto{}
		}
		apps[i] = &DolevStrong{Dealer: 0, Value: 42, F: p.F, Default: 99}
		return New(cfg, apps[i])
	})
	c.Start()
	c.Run(float64(p.F+6) * p.Period)
	return apps
}

type silentProto struct{}

func (silentProto) Start(node.Env)                          {}
func (silentProto) Deliver(node.Env, node.ID, node.Message) {}

func TestDolevStrongHonestDealer(t *testing.T) {
	apps := runDolevStrong(t, 5, nil, 0)
	for i, a := range apps {
		if a == nil {
			continue
		}
		v, ok := a.Decided()
		if !ok {
			t.Fatalf("node %d did not decide", i)
		}
		if v != 42 {
			t.Fatalf("node %d decided %d, want 42", i, v)
		}
	}
}

func TestDolevStrongHonestDealerWithSilentFaults(t *testing.T) {
	// n=5, f=2: two non-dealer processes crash; the rest still decide 42.
	apps := runDolevStrong(t, 5, nil, 2)
	for i, a := range apps {
		if a == nil {
			continue
		}
		v, ok := a.Decided()
		if !ok {
			t.Fatalf("node %d did not decide", i)
		}
		if v != 42 {
			t.Fatalf("node %d decided %d, want 42", i, v)
		}
	}
}

// equivocatingDealer participates in the synchronizer correctly but sends
// value 7 to the first half and value 8 to the second half in round 1.
type equivocatingDealer struct {
	sync *core.AuthProtocol
	sent bool
}

func (d *equivocatingDealer) Start(env node.Env) {
	d.sync.OnAccept = func(k int) { d.onPulse(env, k) }
	d.sync.Start(env)
}

func (d *equivocatingDealer) Deliver(env node.Env, from node.ID, msg node.Message) {
	if msg.Kind == KindApp {
		return
	}
	d.sync.Deliver(env, from, msg)
}

func (d *equivocatingDealer) onPulse(env node.Env, k int) {
	if d.sent {
		return
	}
	d.sent = true
	for _, value := range []uint64{7, 8} {
		chain := []chainEntry{{Signer: env.ID(), Sig: env.Sign(dsPayload(env.ID(), value))}}
		msg := Envelope(k, dsMessage{Value: value, Chain: chain})
		for to := 0; to < env.N(); to++ {
			if (to%2 == 0) == (value == 7) {
				env.Send(to, msg)
			}
		}
	}
}

func TestDolevStrongEquivocatingDealer(t *testing.T) {
	apps := runDolevStrong(t, 5, func(cfg core.Config, p bounds.Params) node.Protocol {
		return &equivocatingDealer{sync: core.NewAuth(cfg)}
	}, 0)
	var first uint64
	decided := 0
	for i, a := range apps {
		if a == nil {
			continue
		}
		v, ok := a.Decided()
		if !ok {
			t.Fatalf("node %d did not decide", i)
		}
		if decided == 0 {
			first = v
		} else if v != first {
			t.Fatalf("consistency violated: node %d decided %d, others %d", i, v, first)
		}
		decided++
	}
	if decided < 4 {
		t.Fatalf("only %d nodes decided", decided)
	}
	// With both values extracted, everyone lands on the default.
	if first != 99 {
		t.Fatalf("decided %d, want default 99 under equivocation", first)
	}
}

func TestDolevStrongSilentDealerDecidesDefault(t *testing.T) {
	// The dealer is Byzantine-silent: nobody ever extracts a value, so
	// everyone decides the default.
	apps := runDolevStrong(t, 5, func(core.Config, bounds.Params) node.Protocol {
		return silentProto{}
	}, 0)
	for i, a := range apps {
		if a == nil {
			continue
		}
		v, ok := a.Decided()
		if !ok {
			t.Fatalf("node %d did not decide", i)
		}
		if v != 99 {
			t.Fatalf("node %d decided %d, want default 99", i, v)
		}
	}
}

func TestNewCheckedRejectsInvalidResilience(t *testing.T) {
	p := lockstepParams(5)
	p.F = 3 // 2f >= n
	if _, err := NewChecked(p, &echoApp{}); err == nil {
		t.Fatal("invalid resilience accepted")
	}
}

func TestDolevStrongForgedChainsRejected(t *testing.T) {
	p := lockstepParams(4)
	cfg := core.ConfigFromBounds(p)
	app := &DolevStrong{Dealer: 2, Value: 5, F: p.F, Default: 9}
	proto := New(cfg, app)
	c := buildCluster(t, p, func(i int) node.Protocol {
		if i == 0 {
			return proto
		}
		return New(cfg, &DolevStrong{Dealer: 2, Value: 5, F: p.F, Default: 9})
	})
	c.Start()
	c.Run(1.5)
	app.round = 2 // simulate being in round 2: chains need 1 valid signer
	env := c.Nodes[0]
	bad := []dsMessage{
		{Value: 5, Chain: nil}, // empty chain
		{Value: 5, Chain: []chainEntry{{Signer: 1, Sig: []byte("x")}}}, // not dealer-first
		{Value: 5, Chain: []chainEntry{{Signer: 2, Sig: []byte("x")}}}, // bad signature
		{Value: 5, Chain: []chainEntry{ // duplicate signer
			{Signer: 2, Sig: env.Sign(dsPayload(2, 5))},
			{Signer: 2, Sig: env.Sign(dsPayload(2, 5))},
		}},
	}
	for i, m := range bad {
		if app.validChain(env, m) {
			t.Fatalf("forged chain %d accepted", i)
		}
	}
	good := dsMessage{Value: 5, Chain: []chainEntry{
		{Signer: 2, Sig: c.Nodes[2].Sign(dsPayload(2, 5))},
	}}
	if !app.validChain(env, good) {
		t.Fatal("valid chain rejected")
	}
}
