package lockstep

import (
	"encoding/binary"
	"sort"

	"optsync/internal/node"
	"optsync/internal/sig"
)

// DolevStrong is the classic authenticated Byzantine broadcast (Dolev &
// Strong 1983) implemented as a lock-step App — the canonical "synchronous
// algorithm run on top of synchronized clocks" that the paper's
// introduction motivates. With signatures it tolerates any number of
// faulty processes for consistency; termination takes f+1 rounds.
//
// Round structure (value space: uint64):
//
//	round 1:    the dealer signs its value and broadcasts it.
//	round r<=f+1: on receiving a value with r-1 distinct valid signatures
//	            (the dealer's first), a process adds the value to its
//	            extracted set, appends its own signature, and broadcasts.
//	after round f+1: decide — the single extracted value, or the default
//	            if zero or multiple values were extracted (an equivocating
//	            dealer yields the same default everywhere).
type DolevStrong struct {
	Dealer node.ID
	// Value is the dealer's input (ignored on other processes).
	Value uint64
	// F is the number of tolerated faults; deciding takes F+1 rounds.
	F int
	// Default is decided when the dealer equivocates or stays silent.
	Default uint64

	extracted map[uint64][]chainEntry // value -> best signature chain seen
	sent      map[uint64]bool
	decided   bool
	decision  uint64
	round     int

	// OnDecide, if set, observes the decision.
	OnDecide func(value uint64)
}

var _ App = (*DolevStrong)(nil)

type chainEntry struct {
	Signer node.ID
	Sig    sig.Signature
}

// dsMessage carries a value and its signature chain.
type dsMessage struct {
	Value uint64
	Chain []chainEntry
}

func dsPayload(dealer node.ID, value uint64) []byte {
	const prefix = "optsync/dolev-strong/"
	buf := make([]byte, len(prefix)+16)
	copy(buf, prefix)
	binary.BigEndian.PutUint64(buf[len(prefix):], uint64(int64(dealer)))
	binary.BigEndian.PutUint64(buf[len(prefix)+8:], value)
	return buf
}

// Decided reports whether and what the process decided.
func (d *DolevStrong) Decided() (uint64, bool) { return d.decision, d.decided }

// FirstRound implements App.
func (d *DolevStrong) FirstRound(env node.Env) []Outgoing {
	d.extracted = make(map[uint64][]chainEntry)
	d.sent = make(map[uint64]bool)
	d.round = 1
	if env.ID() != d.Dealer {
		return nil
	}
	chain := []chainEntry{{Signer: env.ID(), Sig: env.Sign(dsPayload(d.Dealer, d.Value))}}
	d.extracted[d.Value] = chain
	d.sent[d.Value] = true
	return []Outgoing{{Broadcast: true, Payload: dsMessage{Value: d.Value, Chain: chain}}}
}

// Round implements App.
func (d *DolevStrong) Round(env node.Env, _ int, in []Incoming) []Outgoing {
	if d.decided {
		return nil
	}
	d.round++
	var out []Outgoing
	for _, m := range in {
		msg, ok := m.Payload.(dsMessage)
		if !ok {
			continue
		}
		if !d.validChain(env, msg) {
			continue
		}
		if _, seen := d.extracted[msg.Value]; seen {
			continue
		}
		d.extracted[msg.Value] = msg.Chain
		if d.sent[msg.Value] || d.round > d.F+1 {
			continue
		}
		// Relay with our signature appended.
		chain := append(append([]chainEntry(nil), msg.Chain...), chainEntry{
			Signer: env.ID(),
			Sig:    env.Sign(dsPayload(d.Dealer, msg.Value)),
		})
		d.sent[msg.Value] = true
		out = append(out, Outgoing{Broadcast: true, Payload: dsMessage{Value: msg.Value, Chain: chain}})
	}
	if d.round == d.F+2 { // rounds 1..F+1 are over: decide
		d.decide()
	}
	return out
}

// validChain checks a message received in round d.round: it needs at least
// d.round-1 distinct signers, the dealer first, all signatures valid.
func (d *DolevStrong) validChain(env node.Env, m dsMessage) bool {
	need := d.round - 1
	if len(m.Chain) < need || len(m.Chain) == 0 {
		return false
	}
	if m.Chain[0].Signer != d.Dealer {
		return false
	}
	payload := dsPayload(d.Dealer, m.Value)
	seen := make(map[node.ID]bool, len(m.Chain))
	for _, e := range m.Chain {
		if seen[e.Signer] {
			return false // duplicate signer in chain
		}
		seen[e.Signer] = true
		if !env.Verify(e.Signer, payload, e.Sig) {
			return false
		}
	}
	return true
}

func (d *DolevStrong) decide() {
	d.decided = true
	values := make([]uint64, 0, len(d.extracted))
	for v := range d.extracted {
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	if len(values) == 1 {
		d.decision = values[0]
	} else {
		d.decision = d.Default // silent or equivocating dealer
	}
	if d.OnDecide != nil {
		d.OnDecide(d.decision)
	}
}
