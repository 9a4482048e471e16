package sig

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
)

// stdlibHMAC is the oracle: the crypto/hmac construction over the key
// NewHMAC derives for signer.
func stdlibHMAC(seed int64, signer int, payload []byte) []byte {
	key := deriveSeed(seed, signer)
	mac := hmac.New(sha256.New, key[:])
	mac.Write(payload)
	return mac.Sum(nil)
}

func testPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + n)
	}
	return p
}

func TestHMACMatchesCryptoHMAC(t *testing.T) {
	const n, seed = 5, 42
	s := NewHMAC(n, seed)
	for _, size := range []int{0, 1, 25, 63, 64, 65, maxStackPayload - 1, maxStackPayload, maxStackPayload + 1, 500} {
		payload := testPayload(size)
		for signer := 0; signer < n; signer++ {
			got := s.Sign(signer, payload)
			if want := stdlibHMAC(seed, signer, payload); !bytes.Equal(got, want) {
				t.Fatalf("len %d signer %d: Sign = %x, crypto/hmac = %x", size, signer, got, want)
			}
			if !s.Verify(signer, payload, got) {
				t.Fatalf("len %d signer %d: own signature rejected", size, signer)
			}
			flipped := append(Signature(nil), got...)
			flipped[size%len(flipped)] ^= 0x10
			rejected := map[string]bool{
				"flipped bit":         s.Verify(signer, payload, flipped),
				"wrong signer":        s.Verify((signer+1)%n, payload, got),
				"signer out of range": s.Verify(n, payload, got),
				"negative signer":     s.Verify(-1, payload, got),
				"nil signature":       s.Verify(signer, payload, nil),
				"short signature":     s.Verify(signer, payload, got[:len(got)-1]),
				"long signature":      s.Verify(signer, payload, append(append(Signature(nil), got...), 0)),
			}
			for what, ok := range rejected {
				if ok {
					t.Fatalf("len %d signer %d: %s verified", size, signer, what)
				}
			}
		}
	}
}

func TestHMACAllocations(t *testing.T) {
	s := NewHMAC(25, 1)
	payload := testPayload(25)
	sg := s.Sign(3, payload)
	if got := testing.AllocsPerRun(200, func() {
		if !s.Verify(3, payload, sg) {
			t.Fatal("valid signature rejected")
		}
	}); got != 0 {
		t.Errorf("Verify allocates %v times per call, want 0", got)
	}
	var out Signature
	if got := testing.AllocsPerRun(200, func() { out = s.Sign(3, payload) }); got > 1 {
		t.Errorf("Sign allocates %v times per call, want at most 1 (the signature)", got)
	}
	if !bytes.Equal(out, sg) {
		t.Fatal("Sign is not deterministic")
	}
}

// FuzzHMACMatchesStdlib checks, for arbitrary seeds, signers and payloads,
// that the scheme's MAC is crypto/hmac's and that no mutated signature
// verifies. The committed corpus (testdata/fuzz) holds the protocols' two
// payloads, the empty one and the block and stack-buffer boundaries.
func FuzzHMACMatchesStdlib(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte("optsync/st/round/\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Fuzz(func(t *testing.T, seed int64, signer uint8, payload []byte) {
		const n = 7
		id := int(signer) % n
		s := NewHMAC(n, seed)
		got := s.Sign(id, payload)
		if want := stdlibHMAC(seed, id, payload); !bytes.Equal(got, want) {
			t.Fatalf("Sign = %x, crypto/hmac = %x", got, want)
		}
		if !s.Verify(id, payload, got) {
			t.Fatal("own signature rejected")
		}
		got[int(signer)%len(got)] ^= 1 << (uint(len(payload)) % 8)
		if s.Verify(id, payload, got) {
			t.Fatal("mutated signature verified")
		}
	})
}
