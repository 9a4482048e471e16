// Package sig provides the signature schemes used by the authenticated
// Srikanth-Toueg algorithm.
//
// The paper treats signatures axiomatically: a correct process's signature
// on a message cannot be produced by anyone else. Two implementations are
// provided:
//
//   - Ed25519: real public-key signatures from crypto/ed25519. Forgery is
//     computationally infeasible, matching the axiom cryptographically.
//   - HMAC: a fast symmetric stand-in where the scheme itself acts as a
//     trusted verification oracle. Within the simulation, Byzantine code can
//     only interact through Sign/Verify, so the unforgeability axiom holds
//     by construction; this trades the cryptographic guarantee for speed,
//     which matters for large parameter sweeps. On the 25-byte round
//     payload (`bash bench/run.sh -layers`, 2-core Xeon @ 2.10GHz) Ed25519
//     takes 20.7 µs to sign and 46.0 µs to verify; HMAC takes 0.32 µs and
//     0.30 µs (0.54 and 0.56 µs while every call built a crypto/hmac
//     object), with no allocation in Verify and one, the signature, in
//     Sign.
//
// Signer identities are small integers (node indices). Keys are derived
// deterministically from a seed so that simulations are reproducible.
//
// HMAC and Ed25519 are immutable after construction: Sign and Verify read
// the keys and write nothing, so one scheme is shared without locking by
// the shard goroutines of a simulation.
//
// A scheme's Verify does its full work on every call. Every process of a
// signed run checks every other's round signature, so on a 25-node mesh
// over nine checks in ten ask what another node on the same engine has just
// asked. What saves the repeats is Memo, which node.Cluster puts in front
// of the scheme, one per engine and so one per goroutine. It answers from
// memory only a call equal in signer, payload and signature to the one the
// scheme last accepted for that signer, and verification is a function of
// exactly those three, so the answer is the scheme's on every input; its
// counters (asked, computed, rejected) are the cryptographic cost of a run.
package sig

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// Signature is an opaque signature blob.
type Signature []byte

// Scheme signs and verifies on behalf of a fixed universe of n signers,
// identified by indices 0..n-1.
type Scheme interface {
	// Sign produces signer's signature over payload. It panics if signer
	// is out of range (that is a harness bug, not a runtime condition).
	Sign(signer int, payload []byte) Signature
	// Verify reports whether s is signer's valid signature over payload.
	// Malformed inputs simply verify as false.
	Verify(signer int, payload []byte, s Signature) bool
	// Name identifies the scheme in reports.
	Name() string
}

// deriveSeed expands (seed, signer) into 32 deterministic bytes.
func deriveSeed(seed int64, signer int) [32]byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(int64(signer)))
	return sha256.Sum256(buf[:])
}

// Ed25519 is a real public-key signature scheme over deterministic
// per-signer keys.
type Ed25519 struct {
	privs []ed25519.PrivateKey
	pubs  []ed25519.PublicKey
}

var _ Scheme = (*Ed25519)(nil)

// NewEd25519 derives n key pairs from seed.
func NewEd25519(n int, seed int64) *Ed25519 {
	s := &Ed25519{
		privs: make([]ed25519.PrivateKey, n),
		pubs:  make([]ed25519.PublicKey, n),
	}
	for i := 0; i < n; i++ {
		ks := deriveSeed(seed, i)
		priv := ed25519.NewKeyFromSeed(ks[:])
		s.privs[i] = priv
		s.pubs[i] = priv.Public().(ed25519.PublicKey)
	}
	return s
}

// Sign implements Scheme.
func (s *Ed25519) Sign(signer int, payload []byte) Signature {
	s.check(signer)
	return Signature(ed25519.Sign(s.privs[signer], payload))
}

// Verify implements Scheme.
func (s *Ed25519) Verify(signer int, payload []byte, sg Signature) bool {
	if signer < 0 || signer >= len(s.pubs) || len(sg) != ed25519.SignatureSize {
		return false
	}
	return ed25519.Verify(s.pubs[signer], payload, []byte(sg))
}

// Name implements Scheme.
func (s *Ed25519) Name() string { return "ed25519" }

func (s *Ed25519) check(signer int) {
	if signer < 0 || signer >= len(s.privs) {
		panic(fmt.Sprintf("sig: signer %d out of range [0,%d)", signer, len(s.privs)))
	}
}

// HMAC is a fast symmetric scheme: Sign(i, m) = HMAC-SHA256(key_i, m).
// Because verification recomputes with key_i held by the scheme, the scheme
// is a trusted oracle; within the simulation the unforgeability axiom holds
// because all parties (including Byzantine protocol code) interact only
// through this API.
//
// The MAC bytes are those of crypto/hmac. What differs is the cost: the
// two padded key blocks are computed once per signer, and each MAC is two
// sha256.Sum256 calls over stack buffers, so Verify allocates nothing and
// Sign only the signature it returns.
type HMAC struct {
	keys []hmacKey
}

// hmacKey is one signer's key in the form HMAC consumes it: the key
// zero-padded to the SHA-256 block size and XORed with the inner and
// outer pad bytes (RFC 2104).
type hmacKey struct {
	ipad, opad [sha256.BlockSize]byte
}

// maxStackPayload is the longest payload MACed without touching the heap.
// The protocols sign 16 to 25 bytes.
const maxStackPayload = 192

var _ Scheme = (*HMAC)(nil)

// NewHMAC derives n keys from seed.
func NewHMAC(n int, seed int64) *HMAC {
	s := &HMAC{keys: make([]hmacKey, n)}
	for i := range s.keys {
		key := deriveSeed(seed, i)
		k := &s.keys[i]
		for j := range k.ipad {
			k.ipad[j], k.opad[j] = 0x36, 0x5c
		}
		for j, b := range key {
			k.ipad[j] ^= b
			k.opad[j] ^= b
		}
	}
	return s
}

// Sign implements Scheme.
func (s *HMAC) Sign(signer int, payload []byte) Signature {
	if signer < 0 || signer >= len(s.keys) {
		panic(fmt.Sprintf("sig: signer %d out of range [0,%d)", signer, len(s.keys)))
	}
	mac := s.keys[signer].mac(payload)
	return append(Signature(nil), mac[:]...)
}

// Verify implements Scheme: a full recomputation of the MAC and a
// constant-time comparison, every time it is called (a simulation calls it
// through a Memo, which see).
//
//syncsim:hotpath
func (s *HMAC) Verify(signer int, payload []byte, sg Signature) bool {
	if signer < 0 || signer >= len(s.keys) {
		return false
	}
	mac := s.keys[signer].mac(payload)
	return subtle.ConstantTimeCompare(mac[:], sg) == 1
}

// mac returns H(opad || H(ipad || payload)).
//
//syncsim:hotpath
func (k *hmacKey) mac(payload []byte) [sha256.Size]byte {
	if len(payload) > maxStackPayload {
		return k.macLong(payload)
	}
	var inner [sha256.BlockSize + maxStackPayload]byte
	copy(inner[:], k.ipad[:])
	n := sha256.BlockSize + copy(inner[sha256.BlockSize:], payload)
	return k.outer(sha256.Sum256(inner[:n]))
}

// macLong is mac for payloads that do not fit the stack buffer.
func (k *hmacKey) macLong(payload []byte) [sha256.Size]byte {
	inner := make([]byte, 0, sha256.BlockSize+len(payload))
	inner = append(append(inner, k.ipad[:]...), payload...)
	return k.outer(sha256.Sum256(inner))
}

// outer returns H(opad || innerSum).
//
//syncsim:hotpath
func (k *hmacKey) outer(innerSum [sha256.Size]byte) [sha256.Size]byte {
	var outer [sha256.BlockSize + sha256.Size]byte
	copy(outer[:], k.opad[:])
	copy(outer[sha256.BlockSize:], innerSum[:])
	return sha256.Sum256(outer[:])
}

// Name implements Scheme.
func (s *HMAC) Name() string { return "hmac-sha256" }
