package sig

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func schemes(n int, seed int64) map[string]Scheme {
	return map[string]Scheme{
		"ed25519": NewEd25519(n, seed),
		"hmac":    NewHMAC(n, seed),
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("round 7")
			for i := 0; i < 4; i++ {
				sg := s.Sign(i, msg)
				if !s.Verify(i, msg, sg) {
					t.Fatalf("signer %d: valid signature rejected", i)
				}
			}
		})
	}
}

func TestVerifyRejectsWrongSigner(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("round 7")
			sg := s.Sign(0, msg)
			for i := 1; i < 4; i++ {
				if s.Verify(i, msg, sg) {
					t.Fatalf("signature by 0 verified for signer %d", i)
				}
			}
		})
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			sg := s.Sign(2, []byte("round 7"))
			if s.Verify(2, []byte("round 8"), sg) {
				t.Fatal("tampered payload verified")
			}
		})
	}
}

func TestVerifyRejectsTamperedSignature(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			msg := []byte("round 7")
			sg := s.Sign(2, msg)
			bad := append(Signature(nil), sg...)
			bad[0] ^= 0xFF
			if s.Verify(2, msg, bad) {
				t.Fatal("tampered signature verified")
			}
		})
	}
}

func TestVerifyRejectsGarbage(t *testing.T) {
	for name, s := range schemes(4, 1) {
		t.Run(name, func(t *testing.T) {
			if s.Verify(0, []byte("m"), nil) {
				t.Fatal("nil signature verified")
			}
			if s.Verify(0, []byte("m"), Signature("short")) {
				t.Fatal("short signature verified")
			}
			if s.Verify(-1, []byte("m"), Signature(make([]byte, 64))) {
				t.Fatal("negative signer verified")
			}
			if s.Verify(99, []byte("m"), Signature(make([]byte, 64))) {
				t.Fatal("out-of-range signer verified")
			}
		})
	}
}

func TestSignOutOfRangePanics(t *testing.T) {
	for name, s := range schemes(3, 1) {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Sign(5) did not panic")
				}
			}()
			s.Sign(5, []byte("m"))
		})
	}
}

func TestDeterministicKeys(t *testing.T) {
	a := NewEd25519(3, 99)
	b := NewEd25519(3, 99)
	msg := []byte("hello")
	if !bytes.Equal(a.Sign(1, msg), b.Sign(1, msg)) {
		t.Fatal("same seed produced different ed25519 signatures")
	}
	c := NewEd25519(3, 100)
	if bytes.Equal(a.Sign(1, msg), c.Sign(1, msg)) {
		t.Fatal("different seeds produced identical ed25519 signatures")
	}
}

func TestCrossSchemeRejection(t *testing.T) {
	ed := NewEd25519(3, 1)
	hm := NewHMAC(3, 1)
	msg := []byte("m")
	if hm.Verify(0, msg, ed.Sign(0, msg)) {
		t.Fatal("hmac verified an ed25519 signature")
	}
	if ed.Verify(0, msg, hm.Sign(0, msg)) {
		t.Fatal("ed25519 verified an hmac signature")
	}
}

// Property: no signer's signature over one payload verifies for any other
// (signer, payload) pair.
func TestNoCrossVerifyProperty(t *testing.T) {
	s := NewHMAC(4, 7)
	f := func(p1, p2 []byte, a, b uint8) bool {
		sa, sb := int(a%4), int(b%4)
		sg := s.Sign(sa, p1)
		if sa == sb && bytes.Equal(p1, p2) {
			return s.Verify(sb, p2, sg)
		}
		return !s.Verify(sb, p2, sg)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(29))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
