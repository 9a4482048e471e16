package sig

import (
	"encoding/binary"
	"testing"
)

// calls counts what reaches the scheme behind a Memo.
type calls struct {
	Scheme
	verifies int
}

func (c *calls) Verify(signer int, payload []byte, s Signature) bool {
	c.verifies++
	return c.Scheme.Verify(signer, payload, s)
}

func roundPayload(round int) []byte {
	return binary.BigEndian.AppendUint64([]byte("optsync/st/round/"), uint64(round))
}

// TestMemoHitsOnlyOnExactTriple walks one memo through the traffic of a
// signed run and reads off, call by call, whether the scheme was asked: only
// a call equal in signer, payload and signature to the last one accepted for
// that signer is answered from memory.
func TestMemoHitsOnlyOnExactTriple(t *testing.T) {
	for name, scheme := range schemes(40, 1) {
		t.Run(name, func(t *testing.T) {
			inner := &calls{Scheme: scheme}
			m := NewMemo(inner, 40)
			if m.pages != nil || m.stride != 0 {
				t.Fatal("a new memo holds storage")
			}
			r1, r2 := roundPayload(1), roundPayload(2)
			s1, s2 := scheme.Sign(3, r1), scheme.Sign(3, r2)
			flipped := append(Signature(nil), s2...)
			flipped[len(flipped)-1] ^= 1
			long := make([]byte, memoPayload)
			for i, step := range []struct {
				what     string
				signer   int
				payload  []byte
				sig      Signature
				ok, asks bool
			}{
				{"first sight", 3, r1, s1, true, true},
				{"the same triple", 3, r1, s1, true, false},
				{"the same triple in other memory", 3, roundPayload(1), append(Signature(nil), s1...), true, false},
				{"the next round", 3, r2, s2, true, true},
				{"the next round again", 3, r2, s2, true, false},
				{"the round before, no longer remembered", 3, r1, s1, true, true},
				{"and remembered again", 3, r1, s1, true, false},
				{"a stale round's signature on this round's payload", 3, r2, s1, false, true},
				{"a failure is not remembered", 3, r2, s1, false, true},
				{"nor does it evict", 3, r1, s1, true, false},
				{"one flipped bit", 3, r2, flipped, false, true},
				{"a truncated signature", 3, r1, s1[:len(s1)-1], false, true},
				{"an extended signature", 3, r1, append(append(Signature(nil), s1...), 0), false, true},
				{"a payload that is a prefix", 3, r1[:len(r1)-1], s1, false, true},
				{"another signer", 4, r1, s1, false, true},
				{"a signer on a page never allocated", 39, r1, s1, false, true},
				{"a signer out of range", 40, r1, s1, false, true},
				{"a negative signer", -1, r1, s1, false, true},
				{"a second signer", 20, r1, scheme.Sign(20, r1), true, true},
				{"a second signer again", 20, r1, scheme.Sign(20, r1), true, false},
				{"the first signer is still held", 3, r1, s1, true, false},
				{"the empty payload", 3, nil, scheme.Sign(3, nil), true, true},
				{"the empty payload again", 3, []byte{}, scheme.Sign(3, nil), true, false},
				{"a payload too long for an entry", 3, long, scheme.Sign(3, long), true, true},
				{"is checked in full each time", 3, long, scheme.Sign(3, long), true, true},
				{"and evicts nothing", 3, nil, scheme.Sign(3, nil), true, false},
			} {
				before := inner.verifies
				if got := m.Verify(step.signer, step.payload, step.sig); got != step.ok {
					t.Fatalf("step %d (%s): Verify = %v, want %v", i, step.what, got, step.ok)
				}
				if asked := inner.verifies > before; asked != step.asks {
					t.Fatalf("step %d (%s): scheme asked = %v, want %v", i, step.what, asked, step.asks)
				}
			}
			if got, want := m.Stats(), (MemoStats{Asked: 26, Computed: 17, Rejected: 10}); got != want {
				t.Fatalf("stats = %+v, want %+v", got, want)
			}
			if got := uint64(inner.verifies); got != m.Stats().Computed {
				t.Fatalf("scheme saw %d verifications, memo counted %d", got, m.Stats().Computed)
			}
			// Signers 3, 4 and 20 were heard from; only 3 and 20 ever validly,
			// and they live on two pages.
			held := 0
			for _, p := range m.pages {
				if p != nil {
					held++
				}
			}
			if held != 2 {
				t.Fatalf("%d pages allocated, want 2", held)
			}
			sg := scheme.Sign(3, nil)
			if got := testing.AllocsPerRun(100, func() {
				if !m.Verify(3, nil, sg) {
					t.Fatal("remembered triple rejected")
				}
			}); got != 0 {
				t.Errorf("a hit allocates %v times, want 0", got)
			}
		})
	}
}

// fuzzSigners and fuzzRounds span FuzzMemoMatchesScheme's world: small, so
// that a byte-driven sequence keeps coming back to triples it has seen.
const (
	fuzzSigners = 19 // two pages
	fuzzRounds  = 4
)

// FuzzMemoMatchesScheme drives a memo and its scheme with the same sequence
// of Verify calls, three bytes a call — what to do, to whom, on which round
// — and requires the same answer at every step, for both schemes. The calls
// mix valid signatures with bit-flipped, truncated and extended ones, a
// valid signature under the wrong signer or on another round's payload,
// empty and over-long payloads, and signers out of range.
func FuzzMemoMatchesScheme(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 3, 1, 2, 3, 1, 0, 3, 1})
	type world struct {
		scheme   Scheme
		payloads [fuzzRounds][]byte
		sigs     [fuzzSigners][fuzzRounds]Signature
	}
	var worlds []*world
	for _, s := range []Scheme{NewHMAC(fuzzSigners, 7), NewEd25519(fuzzSigners, 7)} {
		w := &world{scheme: s}
		for r := range w.payloads {
			w.payloads[r] = roundPayload(r + 1)
			for i := range w.sigs {
				w.sigs[i][r] = s.Sign(i, w.payloads[r])
			}
		}
		worlds = append(worlds, w)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, w := range worlds {
			m := NewMemo(w.scheme, fuzzSigners)
			var want MemoStats
			for ops := ops; len(ops) >= 3; ops = ops[3:] {
				signer, round := int(ops[1])%fuzzSigners, int(ops[2])%fuzzRounds
				payload, sg := w.payloads[round], w.sigs[signer][round]
				switch ops[0] % 12 {
				case 0, 1, 2, 3: // the valid triple: most of a run's traffic
				case 4:
					sg = append(Signature(nil), sg...)
					sg[int(ops[2])%len(sg)] ^= 1 << (ops[1] % 8)
				case 5:
					sg = sg[:int(ops[2])%len(sg)]
				case 6:
					sg = append(append(Signature(nil), sg...), ops[2])
				case 7:
					signer = (signer + 1 + int(ops[2])%(fuzzSigners-1)) % fuzzSigners
				case 8:
					payload = w.payloads[(round+1)%fuzzRounds]
				case 9:
					payload = nil
					if ops[2]&1 == 0 {
						sg = w.scheme.Sign(signer, nil)
					}
				case 10:
					payload = make([]byte, memoPayload-1+int(ops[2])%4)
					if ops[2]&4 == 0 {
						sg = w.scheme.Sign(signer, payload)
					}
				case 11:
					signer = []int{-1, fuzzSigners, -fuzzSigners, 1 << 30}[ops[2]%4]
				}
				got, ok := m.Verify(signer, payload, sg), w.scheme.Verify(signer, payload, sg)
				if got != ok {
					t.Fatalf("%s: Memo.Verify(%d, %x, %x) = %v, scheme says %v", w.scheme.Name(), signer, payload, sg, got, ok)
				}
				want.Asked++
				if !ok {
					want.Rejected++
				}
			}
			if got := m.Stats(); got.Asked != want.Asked || got.Rejected != want.Rejected || got.Computed < got.Rejected || got.Computed > got.Asked {
				t.Fatalf("%s: stats %+v after %d calls, %d of them rejected", w.scheme.Name(), got, want.Asked, want.Rejected)
			}
		}
	})
}
