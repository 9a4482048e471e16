// Package adversary implements Byzantine strategies against the
// synchronization protocols. Faulty processes are ordinary node.Protocol
// implementations — the model's adversary is a single entity, so colluding
// strategies may share memory (signature pools, coordinated schedules)
// instead of using the network.
//
// The strategies:
//
//   - Silent: crash at boot (tests the liveness quorums).
//   - CrashAt: run a correct protocol, then fall silent at a chosen real
//     time (tests mid-run degradation).
//   - AuthRush: beyond-resilience attack on the authenticated algorithm.
//     With f_actual >= f_config+1 colluders, the faulty processes alone
//     assemble the f+1-signature quorum and fire rounds at an arbitrary
//     pace, destroying accuracy (though relay still preserves agreement)
//     — the observable that experiment T4 reports.
//   - PrimRush: the analogous attack on the primitive-based algorithm:
//     f_config+1 colluding readies trigger correct joins, completing the
//     2f+1 quorum without any correct clock being due.
//   - BiasedReporter: attack on averaging baselines. The faulty process
//     participates in the round structure but reports its clock shifted
//     by Bias (kept inside the victim's acceptance threshold), dragging
//     the cluster average each round — the accuracy-degradation attack
//     that separates CNV from the optimal-accuracy algorithms (T3).
package adversary

import (
	"sort"

	"optsync/internal/baseline"
	"optsync/internal/core"
	"optsync/internal/node"
)

// Silent never sends anything.
type Silent struct{}

var (
	_ node.Protocol = Silent{}
	_ node.Deaf     = Silent{}
)

// Start implements node.Protocol.
func (Silent) Start(node.Env) {}

// Deliver implements node.Protocol.
func (Silent) Deliver(node.Env, node.ID, node.Message) {}

// DeafFrom implements node.Deaf: a silent node ignores every message.
func (Silent) DeafFrom() float64 { return 0 }

// CrashAt runs Inner until real time At, then suppresses all of the node's
// output (timers keep firing but sends are dropped — the process is dead
// to the network).
type CrashAt struct {
	Inner node.Protocol
	At    float64
}

var (
	_ node.Protocol = (*CrashAt)(nil)
	_ node.Deaf     = (*CrashAt)(nil)
)

// Start implements node.Protocol.
func (c *CrashAt) Start(env node.Env) { c.Inner.Start(&muzzledEnv{Env: env, at: c.At}) }

// Deliver implements node.Protocol.
func (c *CrashAt) Deliver(env node.Env, from node.ID, msg node.Message) {
	if env.RealTime() >= c.At {
		return // dead processes do not process input either
	}
	c.Inner.Deliver(&muzzledEnv{Env: env, at: c.At}, from, msg)
}

// DeafFrom implements node.Deaf: from At on, Deliver returns at once.
func (c *CrashAt) DeafFrom() float64 { return c.At }

// muzzledEnv passes everything through until the deadline, then drops
// outbound traffic.
type muzzledEnv struct {
	node.Env
	at float64
}

func (m *muzzledEnv) Send(to node.ID, msg node.Message) {
	if m.Env.RealTime() >= m.at {
		return
	}
	m.Env.Send(to, msg)
}

func (m *muzzledEnv) Broadcast(msg node.Message) {
	if m.Env.RealTime() >= m.at {
		return
	}
	m.Env.Broadcast(msg)
}

// Collusion is the shared state of a coalition attacking the authenticated
// algorithm: a pool of round signatures contributed by the members.
type Collusion struct {
	members map[node.ID]node.Env
	order   []node.ID
}

// NewCollusion returns an empty coalition.
func NewCollusion() *Collusion {
	return &Collusion{members: make(map[node.ID]node.Env)}
}

func (c *Collusion) join(env node.Env) {
	if _, ok := c.members[env.ID()]; ok {
		return
	}
	c.members[env.ID()] = env
	c.order = append(c.order, env.ID())
	sort.Ints(c.order)
}

// Size returns the number of joined members.
func (c *Collusion) Size() int { return len(c.members) }

// evidence assembles round-k signatures from every joined member.
func (c *Collusion) evidence(round int) []core.SignedEntry {
	payload := core.RoundPayload(round)
	out := make([]core.SignedEntry, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, core.SignedEntry{Signer: id, Sig: c.members[id].Sign(payload)})
	}
	return out
}

// AuthRush is a coalition member attacking AuthProtocol. All members join
// the shared Collusion at boot; the member designated Leader broadcasts
// coalition evidence for rounds 1, 2, 3, ... every Interval of real time.
// If the coalition has at least f_config+1 members, correct processes
// accept each broadcast — rounds fire at the adversary's pace instead of
// the hardware clocks' pace.
type AuthRush struct {
	Coalition *Collusion
	Leader    bool
	// Interval is the real-time spacing of forged rounds.
	Interval float64
	// Rounds is how many rounds to forge.
	Rounds int
}

var _ node.Protocol = (*AuthRush)(nil)

// Start implements node.Protocol.
func (a *AuthRush) Start(env node.Env) {
	a.Coalition.join(env)
	if !a.Leader {
		return
	}
	for k := 1; k <= a.Rounds; k++ {
		k := k
		// Schedule on real time: the adversary is not bound to its own
		// hardware clock. (Faulty nodes' Env is still the vehicle for
		// scheduling; with perfect default clocks AtLogical is real time.)
		env.AtLogical(float64(k)*a.Interval, func() {
			env.Broadcast(core.RoundMessage(k, a.Coalition.evidence(k)))
		})
	}
}

// Deliver implements node.Protocol.
func (a *AuthRush) Deliver(node.Env, node.ID, node.Message) {}

// PrimRush attacks PrimitiveProtocol: every coalition member broadcasts
// ready(k) for rounds 1..Rounds at Interval spacing. With f_config+1
// members the join rule fires at every correct process, completing the
// 2f+1 quorum with no correct clock due.
type PrimRush struct {
	Interval float64
	Rounds   int
}

var _ node.Protocol = (*PrimRush)(nil)

// Start implements node.Protocol.
func (a *PrimRush) Start(env node.Env) {
	for k := 1; k <= a.Rounds; k++ {
		k := k
		env.AtLogical(float64(k)*a.Interval, func() {
			env.Broadcast(core.ReadyMessage(k))
		})
	}
}

// Deliver implements node.Protocol.
func (a *PrimRush) Deliver(node.Env, node.ID, node.Message) {}

// BiasedReporter attacks averaging baselines: it runs the full baseline
// protocol (so it keeps pace with the cluster, adjusting its own clock
// like everyone else) but every clock value it reports is shifted by Bias.
// Keeping |Bias| at or below the victim's acceptance threshold (CNV's
// Delta) makes the lie indistinguishable from a legitimate fast clock, so
// every correct average is dragged by about Bias/n per round, forever —
// a genuine rate error of f*Bias/(n*P), not a bounded phase shift.
type BiasedReporter struct {
	Inner *baseline.Protocol
	Bias  float64
}

var _ node.Protocol = (*BiasedReporter)(nil)

// Start implements node.Protocol.
func (b *BiasedReporter) Start(env node.Env) {
	b.Inner.Start(&biasedEnv{Env: env, bias: b.Bias})
}

// Deliver implements node.Protocol.
func (b *BiasedReporter) Deliver(env node.Env, from node.ID, msg node.Message) {
	b.Inner.Deliver(&biasedEnv{Env: env, bias: b.Bias}, from, msg)
}

// biasedEnv shifts outgoing clock reports.
type biasedEnv struct {
	node.Env
	bias float64
}

func (e *biasedEnv) Broadcast(msg node.Message) {
	if msg.Kind == baseline.KindClock {
		msg.Value += e.bias
	}
	e.Env.Broadcast(msg)
}

// SelectiveSigner realizes the Theta(d) worst case of the authenticated
// algorithm *within* resilience: the faulty processes sign every round
// early (legal — a signature only claims "my clock reached k*P") but send
// their signatures exclusively to Targets. Targets assemble the f+1 quorum
// the moment the first correct process signs; every other correct process
// lacks the faulty signatures and only accepts via the targets' relay — a
// full message delay later. The acceptance spread, and hence the skew, is
// driven to ~dmax even when the delay uncertainty u = dmax - dmin is tiny,
// matching the paper's skew bound being Theta(d) rather than Theta(u).
type SelectiveSigner struct {
	Cfg     core.Config
	Targets map[node.ID]bool
	Rounds  int
	// Lead is how much (in local clock units) before k*P the signature is
	// produced and sent, ensuring targets hold the faulty signatures
	// before any correct process signs.
	Lead float64
}

var _ node.Protocol = (*SelectiveSigner)(nil)

// Start implements node.Protocol.
func (s *SelectiveSigner) Start(env node.Env) {
	for k := 1; k <= s.Rounds; k++ {
		k := k
		env.AtLogical(float64(k)*s.Cfg.Period-s.Lead, func() {
			entry := core.SignedEntry{Signer: env.ID(), Sig: env.Sign(core.RoundPayload(k))}
			for to := 0; to < env.N(); to++ {
				if s.Targets[to] {
					env.Send(to, core.RoundMessage(k, []core.SignedEntry{entry}))
				}
			}
		})
	}
}

// Deliver implements node.Protocol.
func (s *SelectiveSigner) Deliver(node.Env, node.ID, node.Message) {}

// Equivocator attacks the authenticated algorithm *within* resilience: it
// signs rounds as early as allowed to different subsets at different times
// and replays old evidence, verifying that none of this breaks agreement
// (used by the robustness tests; a correct run should shrug it off).
type Equivocator struct {
	Cfg core.Config
	// TargetA receives evidence promptly, TargetB stale evidence later.
	TargetA, TargetB node.ID
	Rounds           int
}

var _ node.Protocol = (*Equivocator)(nil)

// Start implements node.Protocol.
func (e *Equivocator) Start(env node.Env) {
	for k := 1; k <= e.Rounds; k++ {
		k := k
		env.AtLogical(float64(k)*e.Cfg.Period, func() {
			// Sign the due round (legitimate) but send it selectively,
			// plus a replay of the previous round's own signature.
			own := core.SignedEntry{Signer: env.ID(), Sig: env.Sign(core.RoundPayload(k))}
			env.Send(e.TargetA, core.RoundMessage(k, []core.SignedEntry{own}))
			if k > 1 {
				stale := core.SignedEntry{Signer: env.ID(), Sig: env.Sign(core.RoundPayload(k - 1))}
				env.Send(e.TargetB, core.RoundMessage(k-1, []core.SignedEntry{stale}))
			}
		})
	}
}

// Deliver implements node.Protocol.
func (e *Equivocator) Deliver(node.Env, node.ID, node.Message) {}
