package core

import (
	"encoding/binary"

	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/sig"
)

// Message kinds of the two ST algorithms (see prim.go for ready).
var (
	// KindRound carries round-k evidence: envelope.Round is k and the
	// payload is a []SignedEntry over roundPayload(k). f+1 valid distinct
	// signatures prove that at least one correct process's clock reached
	// k*P.
	KindRound = network.NewKind("st/round")
	// KindAwake carries cold-start liveness evidence: a []SignedEntry
	// over the awake payload by distinct processes.
	KindAwake = network.NewKind("st/awake")
)

// SignedEntry is one signer's signature over the round payload.
type SignedEntry struct {
	Signer node.ID
	Sig    sig.Signature
}

// RoundMessage assembles a round-k evidence envelope.
func RoundMessage(round int, sigs []SignedEntry) node.Message {
	return node.Message{Kind: KindRound, Round: round, Payload: sigs}
}

// AwakeMessage assembles a cold-start liveness envelope.
func AwakeMessage(sigs []SignedEntry) node.Message {
	return node.Message{Kind: KindAwake, Payload: sigs}
}

// sigSet is the evidence held for one payload: verified entries of distinct
// signers, kept sorted by signer. Flattening it for a broadcast is one copy,
// runs are reproducible byte-for-byte, and its memory is proportional to the
// entries held (at most f+1 before a correct process accepts), not to n.
type sigSet []SignedEntry

// search returns signer's position in s and whether s holds it; when it
// does not, the position is where insert would put it.
//
//syncsim:hotpath
func (s sigSet) search(signer node.ID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Signer < signer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].Signer == signer
}

// entries returns the copy of s that goes into a message: receivers keep
// the slice they are handed, while the set is added to and later recycled.
func (s sigSet) entries() []SignedEntry {
	return append([]SignedEntry(nil), s...)
}

// AuthProtocol is the authenticated algorithm (paper Section 3).
//
// Behaviour of a correct process v:
//
//	when C_v = k*P:                sign "round k", broadcast all evidence
//	                               collected for k (at least the own
//	                               signature)
//	on f+1 distinct valid sigs
//	for round k > last accepted:   accept: C_v := k*P + alpha, relay the
//	                               full signature set, start waiting for
//	                               round k+1
//
// Signatures are produced only when the signer's own clock reaches k*P;
// relays forward other processes' signatures without adding one, so a
// signature by a correct process always witnesses "my clock read k*P".
type AuthProtocol struct {
	cfg Config

	lastAccepted int
	lastSigned   int
	// evidence maps a round to its verified entries. A round gets a set
	// only once an entry for it has verified, so forged traffic buys no
	// state; spare is the buffer of the last accepted round, taken by the
	// next set to be created.
	evidence map[int]sigSet
	spare    sigSet
	// payload is roundPayload's buffer: the prefix, then the round.
	payload [len(roundPrefix) + 8]byte

	// timer is the one pending "sign round due" timer; onDue is its
	// callback, bound once and reading due and dueEnv when it fires, so
	// re-arming allocates no closure. Env.Cancel is exact: a cancelled
	// timer never fires, hence the fields are those of the timer that does.
	timer  node.Timer
	due    int
	dueEnv node.Env
	onDue  func()

	// Cold-start state (Config.ColdStart).
	awake        sigSet
	synchronized bool

	// OnAccept, if set, observes each acceptance (round, logical target).
	OnAccept func(round int)
	// OnSynchronized, if set, observes cold-start completion.
	OnSynchronized func()
}

var _ node.Protocol = (*AuthProtocol)(nil)

// NewAuth constructs the protocol; cfg.Period must be positive and
// cfg.Alpha within [0, Period).
func NewAuth(cfg Config) *AuthProtocol {
	cfg = cfg.withDefaults()
	cfg.validate()
	p := &AuthProtocol{
		cfg:      cfg,
		evidence: make(map[int]sigSet),
	}
	copy(p.payload[:], roundPrefix)
	p.onDue = func() { p.signAndBroadcast(p.dueEnv, p.due) }
	return p
}

// Synchronized reports whether the process has established
// synchronization (always true once running without ColdStart).
func (p *AuthProtocol) Synchronized() bool { return p.synchronized }

// LastAccepted returns the highest accepted round (0 before the first).
func (p *AuthProtocol) LastAccepted() int { return p.lastAccepted }

// Start implements node.Protocol.
func (p *AuthProtocol) Start(env node.Env) {
	if p.cfg.ColdStart {
		// Announce liveness; the round schedule begins once f+1 distinct
		// processes are provably up (or once any round is accepted, for
		// processes that boot into a running system).
		p.awake = sigSet{{Signer: env.ID(), Sig: env.Sign(awakePayload())}}
		env.Broadcast(AwakeMessage(p.awake.entries()))
		p.maybeSynchronize(env)
		return
	}
	p.synchronized = true
	p.armTimer(env)
}

// Deliver implements node.Protocol.
func (p *AuthProtocol) Deliver(env node.Env, _ node.ID, msg node.Message) {
	switch msg.Kind {
	case KindAwake:
		sigs, _ := msg.Payload.([]SignedEntry)
		p.deliverAwake(env, sigs)
		return
	case KindRound:
	default:
		return // foreign or malformed traffic is ignored
	}
	round := msg.Round
	if round <= p.lastAccepted || round > p.lastAccepted+p.cfg.MaxRoundAhead {
		return // half of all deliveries are relays of a round already accepted
	}
	sigs, ok := msg.Payload.([]SignedEntry)
	if !ok {
		return
	}
	held := p.evidence[round]
	set := p.merge(env, held, p.roundPayload(round), sigs)
	if len(set) > len(held) {
		p.evidence[round] = set
	}
	p.maybeAccept(env, round)
}

// roundPayload is the package-level roundPayload(round) in the protocol's
// own buffer; the bytes are valid until the next call.
func (p *AuthProtocol) roundPayload(round int) []byte {
	binary.BigEndian.PutUint64(p.payload[len(roundPrefix):], uint64(int64(round)))
	return p.payload[:]
}

// merge verifies every entry of sigs whose signer set does not hold and
// returns set with the valid ones inserted.
//
//syncsim:hotpath
func (p *AuthProtocol) merge(env node.Env, set sigSet, payload []byte, sigs []SignedEntry) sigSet {
	for _, e := range sigs {
		i, dup := set.search(e.Signer)
		if dup || !env.Verify(e.Signer, payload, e.Sig) {
			continue // forged or corrupted entries contribute nothing
		}
		set = p.insert(set, i, e)
	}
	return set
}

// insert puts e at position i of set (see search); a set that does not
// exist yet starts in the spare buffer.
//
//syncsim:hotpath
func (p *AuthProtocol) insert(set sigSet, i int, e SignedEntry) sigSet {
	if set == nil {
		set, p.spare = p.spare, nil
	}
	set = append(set, SignedEntry{})
	copy(set[i+1:], set[i:])
	set[i] = e
	return set
}

// armTimer schedules the next "sign round k" action at C = k*P for the
// first round not yet signed or accepted. Must be called after every clock
// adjustment, since pending logical timers assume no jumps.
func (p *AuthProtocol) armTimer(env node.Env) {
	env.Cancel(p.timer)
	p.due, p.dueEnv = max(p.lastSigned, p.lastAccepted)+1, env
	p.timer = env.AtLogical(p.cfg.roundDue(p.due), p.onDue)
}

// signAndBroadcast runs when the local clock reads k*P.
func (p *AuthProtocol) signAndBroadcast(env node.Env, k int) {
	if k <= p.lastSigned || k <= p.lastAccepted {
		p.armTimer(env)
		return
	}
	p.lastSigned = k
	set := p.evidence[k]
	own := SignedEntry{Signer: env.ID(), Sig: env.Sign(p.roundPayload(k))}
	// Held already only where a harness gave this process's key away; the
	// entry held then verified, and stays.
	if i, held := set.search(own.Signer); !held {
		set = p.insert(set, i, own)
		p.evidence[k] = set
	}
	env.Broadcast(RoundMessage(k, set.entries()))
	// Own signature may complete the quorum (e.g. f=0, or evidence
	// arrived before our clock was due).
	p.maybeAccept(env, k)
	if p.lastAccepted < k {
		p.armTimer(env)
	}
}

// maybeAccept checks the f+1 quorum for round k and performs the
// resynchronization step.
func (p *AuthProtocol) maybeAccept(env node.Env, k int) {
	set := p.evidence[k]
	if len(set) < env.F()+1 || k <= p.lastAccepted {
		return
	}
	p.lastAccepted = k
	if p.lastSigned < k {
		p.lastSigned = k // the round is over; never sign it late
	}
	p.synchronized = true // a late booter integrates via its first round
	env.SetLogical(p.cfg.roundTarget(k))
	env.Pulse(k)
	if !p.cfg.DisableRelay {
		// Relay the complete evidence so every correct process accepts
		// within one message delay (the relay property).
		env.Broadcast(RoundMessage(k, set.entries()))
	}
	for r := range p.evidence {
		if r <= k {
			delete(p.evidence, r)
		}
	}
	p.spare = set[:0]
	if p.OnAccept != nil {
		p.OnAccept(k)
	}
	p.armTimer(env)
}

// deliverAwake merges awake evidence; on an f+1 quorum the process adopts
// logical time Alpha and starts the round schedule.
func (p *AuthProtocol) deliverAwake(env node.Env, sigs []SignedEntry) {
	if !p.cfg.ColdStart || p.synchronized {
		return
	}
	p.awake = p.merge(env, p.awake, awakePayload(), sigs)
	p.maybeSynchronize(env)
}

func (p *AuthProtocol) maybeSynchronize(env node.Env) {
	if p.synchronized || len(p.awake) < env.F()+1 {
		return
	}
	p.synchronized = true
	// Adopt a common epoch: logical time Alpha (one propagation delay
	// after the "first correct process is up" instant, mirroring the
	// round adjustment). Relay the quorum so everyone starts within one
	// message delay.
	env.SetLogical(p.cfg.Alpha)
	env.Broadcast(AwakeMessage(p.awake.entries()))
	if p.OnSynchronized != nil {
		p.OnSynchronized()
	}
	p.armTimer(env)
}
