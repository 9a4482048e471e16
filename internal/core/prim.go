package core

import (
	"slices"

	"optsync/internal/network"
	"optsync/internal/node"
)

// KindReady announces that the sender's clock reached Round*P (or that
// the sender joined the round after seeing f+1 readies). It carries no
// signature: the non-authenticated algorithm derives its guarantees purely
// from counting distinct senders, which the authenticated channels of the
// model make meaningful. The envelope is scalar-only — a ready crosses
// the network without allocating.
var KindReady = network.NewKind("st/ready")

// ReadyMessage assembles a ready(round) envelope.
func ReadyMessage(round int) node.Message {
	return node.Message{Kind: KindReady, Round: round}
}

// PrimitiveProtocol is the non-authenticated algorithm (paper Section 4),
// the symmetric specialization of the Srikanth-Toueg broadcast primitive
// for f < n/3:
//
//	when C_v = k*P:                     send ready(k) to all (if not yet)
//	on f+1 distinct ready(k):           send ready(k) to all (if not yet)
//	on 2f+1 distinct ready(k),
//	k > last accepted:                  accept: C_v := k*P + alpha
//
// Unforgeability: 2f+1 distinct senders include f+1 correct ones, and the
// first correct ready for a round is sent only when that process's clock
// reads k*P (a correct join presupposes f+1 earlier readies, of which one
// is correct and earlier — induction). Correctness: once f+1 correct
// processes are ready, every correct process joins within one delay and the
// 2f+1 quorum (n-f >= 2f+1) completes within another. Relay: if a correct
// process accepts at t, then f+1 correct readies were sent by t, so every
// correct process joins by t+dmax and accepts by t+2*dmax.
type PrimitiveProtocol struct {
	cfg Config

	lastAccepted int
	lastSent     int
	// readyFrom maps a round to the distinct senders that readied it, sorted
	// by sender and created on the round's first ready inside the window:
	// memory follows the entries held (f per open round at most from faulty
	// senders), never n per round. spare is the accepted round's slice,
	// taken by the next set created; the protocol holds that one only, so
	// rounds that never complete cannot grow a free list.
	readyFrom map[int][]node.ID
	spare     []node.ID
	sent      map[int]bool

	// timer is the one pending "ready round due" timer; as in AuthProtocol,
	// onDue is bound once and reads due and dueEnv when it fires.
	timer  node.Timer
	due    int
	dueEnv node.Env
	onDue  func()

	// OnAccept, if set, observes each acceptance.
	OnAccept func(round int)
}

var _ node.Protocol = (*PrimitiveProtocol)(nil)

// NewPrimitive constructs the protocol.
func NewPrimitive(cfg Config) *PrimitiveProtocol {
	cfg = cfg.withDefaults()
	cfg.validate()
	p := &PrimitiveProtocol{
		cfg:       cfg,
		readyFrom: make(map[int][]node.ID),
		sent:      make(map[int]bool),
	}
	p.onDue = func() {
		env, k := p.dueEnv, p.due
		p.sendReady(env, k)
		if p.lastAccepted < k {
			p.armTimer(env)
		}
	}
	return p
}

// LastAccepted returns the highest accepted round (0 before the first).
func (p *PrimitiveProtocol) LastAccepted() int { return p.lastAccepted }

// Start implements node.Protocol.
func (p *PrimitiveProtocol) Start(env node.Env) {
	p.armTimer(env)
}

// Deliver implements node.Protocol.
//
//syncsim:hotpath
func (p *PrimitiveProtocol) Deliver(env node.Env, from node.ID, msg node.Message) {
	if msg.Kind != KindReady {
		return
	}
	round := msg.Round
	if round <= p.lastAccepted || round > p.lastAccepted+p.cfg.MaxRoundAhead {
		return
	}
	set := p.readyFrom[round]
	i, dup := slices.BinarySearch(set, from)
	if dup {
		return // duplicate readies from one sender count once
	}
	if set == nil {
		set, p.spare = p.spare, nil
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = from
	p.readyFrom[round] = set
	if len(set) >= env.F()+1 {
		p.sendReady(env, round) // join
	}
	if len(set) >= 2*env.F()+1 {
		p.accept(env, round)
	}
}

func (p *PrimitiveProtocol) armTimer(env node.Env) {
	env.Cancel(p.timer)
	p.due, p.dueEnv = max(p.lastSent, p.lastAccepted)+1, env
	p.timer = env.AtLogical(p.cfg.roundDue(p.due), p.onDue)
}

func (p *PrimitiveProtocol) sendReady(env node.Env, k int) {
	if p.sent[k] || k <= p.lastAccepted {
		return
	}
	p.sent[k] = true
	if p.lastSent < k {
		p.lastSent = k
	}
	env.Broadcast(ReadyMessage(k))
}

func (p *PrimitiveProtocol) accept(env node.Env, k int) {
	if k <= p.lastAccepted {
		return
	}
	p.lastAccepted = k
	env.SetLogical(p.cfg.roundTarget(k))
	env.Pulse(k)
	p.spare = p.readyFrom[k][:0]
	for r := range p.readyFrom {
		if r <= k {
			delete(p.readyFrom, r)
		}
	}
	for r := range p.sent {
		if r <= k {
			delete(p.sent, r)
		}
	}
	if p.OnAccept != nil {
		p.OnAccept(k)
	}
	p.armTimer(env)
}
