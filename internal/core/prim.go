package core

import (
	"optsync/internal/network"
	"optsync/internal/node"
)

// KindReady announces that the sender's clock reached Round*P (or that
// the sender joined the round after seeing f+1 readies). It carries no
// signature: the non-authenticated algorithm derives its guarantees purely
// from counting distinct senders, which the authenticated channels of the
// model make meaningful. The envelope is a kind and a round, so a ready
// rides the simulator's event inline and crosses the network without
// allocating.
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
	// readyFrom maps a round to the distinct senders that readied it, a
	// readySet created on the round's first ready inside the window. A set
	// pays per present 64-sender block: a full mesh of 256 is 4 words
	// (64 bytes), a ring's contiguous neighbours 1 or 2, and the worst sparse
	// pattern one 16-byte word per sender — so f faulty senders readying
	// every round of the window still hold O(f) words per round, never n.
	// cur is readyFrom[curRound], the set last looked up: the round being
	// assembled takes no map access, and accept clears it. spare is the
	// accepted round's set, reset and taken by the next set created; the
	// protocol holds that one only, so rounds that never complete cannot
	// grow a free list.
	readyFrom map[int]*readySet
	cur       *readySet
	curRound  int
	spare     *readySet
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
		readyFrom: make(map[int]*readySet),
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
	set := p.cur
	if set == nil || p.curRound != round {
		set = p.lookup(round)
	}
	if !set.add(from) {
		return // duplicate readies from one sender count once
	}
	// The join fires when the count reaches f+1, not at every ready past
	// it: any later call would find sent[round] set, or return at once
	// because round <= lastAccepted — sendReady is a no-op either way.
	if set.n == env.F()+1 {
		p.sendReady(env, round) // join
	}
	if set.n >= 2*env.F()+1 {
		p.accept(env, round)
	}
}

// lookup returns round's ready set, creating it on the round's first ready
// (from the spare when there is one), and makes it the cached cur. Not
// inlined: the creation is off Deliver's hot path, and so is its escape.
//
//go:noinline
func (p *PrimitiveProtocol) lookup(round int) *readySet {
	set := p.readyFrom[round]
	if set == nil {
		set, p.spare = p.spare, nil
		if set == nil {
			set = new(readySet)
		}
		p.readyFrom[round] = set
	}
	p.cur, p.curRound = set, round
	return set
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
	p.spare = p.readyFrom[k]
	p.spare.reset()
	p.cur = nil
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

// readySet is one round's distinct ready senders as 64-sender bit words,
// sorted by block: a word holds senders idx*64 .. idx*64+63. Memory is per
// present block, never per n.
type readySet struct {
	words []readyWord
	n     int // distinct senders added
}

// readyWord is the block of 64 senders starting at idx*64 (idx is the
// sender id shifted right arithmetically, so negative ids have blocks too).
type readyWord struct {
	idx  int
	bits uint64
}

// add records sender id and reports whether it was new: a binary search
// finds its block; a set bit is a duplicate; otherwise the bit is set — a
// word inserted in order for a block not seen yet — and n goes up by one.
//
//syncsim:hotpath
func (s *readySet) add(id node.ID) bool {
	idx, bit := id>>6, uint64(1)<<(uint(id)&63)
	lo, hi := 0, len(s.words)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.words[mid].idx < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.words) && s.words[lo].idx == idx {
		w := &s.words[lo]
		if w.bits&bit != 0 {
			return false
		}
		w.bits |= bit
	} else {
		s.words = append(s.words, readyWord{})
		copy(s.words[lo+1:], s.words[lo:])
		s.words[lo] = readyWord{idx: idx, bits: bit}
	}
	s.n++
	return true
}

// reset empties s, keeping its words' capacity.
func (s *readySet) reset() {
	s.words, s.n = s.words[:0], 0
}
