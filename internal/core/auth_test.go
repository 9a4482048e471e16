package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"optsync/internal/node"
	"optsync/internal/sig"
)

// stubEnv is a node.Env with real signatures and nothing else: sends are
// dropped, timers are counted and never fire.
type stubEnv struct {
	id, n, f int
	scheme   sig.Scheme
	logical  float64
	armed    int
}

var _ node.Env = (*stubEnv)(nil)

func (e *stubEnv) ID() node.ID                          { return e.id }
func (e *stubEnv) N() int                               { return e.n }
func (e *stubEnv) F() int                               { return e.f }
func (e *stubEnv) LogicalTime() float64                 { return e.logical }
func (e *stubEnv) HardwareTime() float64                { return e.logical }
func (e *stubEnv) SetLogical(v float64)                 { e.logical = v }
func (e *stubEnv) AtLogical(float64, func()) node.Timer { e.armed++; return nil }
func (e *stubEnv) Cancel(node.Timer)                    {}
func (e *stubEnv) Send(node.ID, node.Message)           {}
func (e *stubEnv) Broadcast(node.Message)               {}
func (e *stubEnv) Sign(p []byte) sig.Signature          { return e.scheme.Sign(e.id, p) }
func (e *stubEnv) Pulse(int)                            {}
func (e *stubEnv) RealTime() float64                    { return e.logical }
func (e *stubEnv) Verify(s node.ID, p []byte, g sig.Signature) bool {
	return e.scheme.Verify(s, p, g)
}

// signedBy returns round evidence signed by signers, in that order.
func signedBy(s sig.Scheme, round int, signers ...int) []SignedEntry {
	payload := roundPayload(round)
	out := make([]SignedEntry, len(signers))
	for i, id := range signers {
		out[i] = SignedEntry{Signer: id, Sig: s.Sign(id, payload)}
	}
	return out
}

func seq(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// TestForgedEvidenceBuysNoState: a round gets per-round state only once an
// entry for it verifies. Evidence that is all forged, for as many distinct
// future rounds as the window admits, must leave nothing behind, and must
// not stand in the way of an honest quorum for one of those rounds.
func TestForgedEvidenceBuysNoState(t *testing.T) {
	const n, f, rounds = 5, 2, 1000
	env := &stubEnv{n: n, f: f, scheme: sig.NewHMAC(n, 3)}
	p := NewAuth(Config{Period: 1})
	p.Start(env)
	for k := 1; k <= rounds; k++ {
		forged := signedBy(env.scheme, k+1, 1, 2, 3) // valid for the wrong round
		forged = append(forged, SignedEntry{Signer: 4, Sig: []byte("garbage")}, SignedEntry{Signer: n + 3}, SignedEntry{Signer: -1})
		p.Deliver(env, 4, RoundMessage(k, forged))
	}
	if got := len(p.evidence); got != 0 {
		t.Fatalf("all-forged evidence for %d rounds left state for %d of them", rounds, got)
	}
	if p.LastAccepted() != 0 {
		t.Fatalf("forged evidence accepted round %d", p.LastAccepted())
	}
	p.Deliver(env, 1, RoundMessage(700, signedBy(env.scheme, 700, 1, 2, 3)))
	if p.LastAccepted() != 700 {
		t.Fatalf("honest quorum for round 700 not accepted after the forged flood (last accepted %d)", p.LastAccepted())
	}
	if got := len(p.evidence); got != 0 {
		t.Fatalf("%d rounds of evidence retained after acceptance", got)
	}
}

// TestAuthDeliverAllocations pins the steady-state allocation count of the
// signed path at the benchmark's shape: n=25, f=12, 13-entry messages.
func TestAuthDeliverAllocations(t *testing.T) {
	const n, f = 25, 12
	env := &stubEnv{n: n, f: f, scheme: sig.NewHMAC(n, 1)}
	p := NewAuth(Config{Period: 1})
	p.Start(env)

	// full[k] is a quorum for round k+1; short[k] is the same message with
	// its last signature forged, so all 13 entries are verified, 12 are
	// inserted and the round is not accepted.
	const runs = 100
	var short, full []node.Message
	for k := 1; k <= 2*(runs+1)+1; k++ { // AllocsPerRun(runs, f) calls f runs+1 times
		entries := signedBy(env.scheme, k, seq(1, f+1)...)
		full = append(full, RoundMessage(k, entries))
		entries = append([]SignedEntry(nil), entries...)
		entries[f].Sig = []byte("forged")
		short = append(short, RoundMessage(k, entries))
	}
	k := 0
	deliver := func(msgs []node.Message, wantAccepted int) {
		p.Deliver(env, 1, msgs[k])
		if p.LastAccepted() != wantAccepted {
			t.Fatalf("round %d delivered: last accepted %d, want %d", k+1, p.LastAccepted(), wantAccepted)
		}
	}
	deliver(full, 1) // the first round grows the buffer every later one reuses
	k++
	// An accepting Deliver allocates the relayed copy of the evidence and
	// the interface value that carries it in the message.
	const acceptBudget = 2
	accept := testing.AllocsPerRun(runs, func() {
		deliver(full, k+1)
		k++
	})
	if accept > acceptBudget {
		t.Errorf("Deliver that accepts: %v allocations, want at most %d", accept, acceptBudget)
	}
	both := testing.AllocsPerRun(runs, func() {
		deliver(short, k)
		deliver(full, k+1)
		k++
	})
	if both != accept {
		t.Errorf("Deliver of a 13-entry message that does not accept: %v allocations, want 0", both-accept)
	}
	if env.armed < k {
		t.Fatalf("timer armed %d times over %d acceptances", env.armed, k)
	}
}

// TestEvidenceSetMatchesMapReference feeds one round random evidence
// (arbitrary order, duplicates, forged entries, signers out of range and
// negative) and checks the held set against a map keyed by signer, which is
// what the set replaced: sorted, distinct, the same entries.
func TestEvidenceSetMatchesMapReference(t *testing.T) {
	const n = 40
	scheme := sig.NewHMAC(n, 9)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		env := &stubEnv{n: n, f: n, scheme: scheme} // quorum out of reach: nothing is accepted
		p := NewAuth(Config{Period: 1})
		p.Start(env)
		round := 1 + rng.Intn(50)
		payload := roundPayload(round)
		ref := map[node.ID]sig.Signature{}
		for m := rng.Intn(6); m >= 0; m-- {
			msg := make([]SignedEntry, rng.Intn(2*n))
			for i := range msg {
				e := SignedEntry{Signer: rng.Intn(n+20) - 10}
				switch rng.Intn(4) {
				case 0:
					e.Sig = []byte("forged")
				case 1:
					e.Sig = scheme.Sign(rng.Intn(n), payload) // someone else's, most of the time
				default:
					if e.Signer >= 0 && e.Signer < n {
						e.Sig = scheme.Sign(e.Signer, payload)
					}
				}
				msg[i] = e
				if _, dup := ref[e.Signer]; !dup && scheme.Verify(e.Signer, payload, e.Sig) {
					ref[e.Signer] = e.Sig
				}
			}
			p.Deliver(env, 1, RoundMessage(round, msg))
		}
		want := make([]SignedEntry, 0, len(ref))
		for id, s := range ref {
			want = append(want, SignedEntry{Signer: id, Sig: s})
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Signer < want[j].Signer })
		got := p.evidence[round].entries()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d entries held, reference holds %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Signer != want[i].Signer || !bytes.Equal(got[i].Sig, want[i].Sig) {
				t.Fatalf("trial %d: entry %d is signer %d, reference has signer %d", trial, i, got[i].Signer, want[i].Signer)
			}
		}
		if _, held := p.evidence[round]; held != (len(want) > 0) {
			t.Fatalf("trial %d: round state held = %v with %d verified entries", trial, held, len(want))
		}
	}
}
