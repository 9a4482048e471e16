package sig

import (
	"bytes"
	"crypto/subtle"
)

// Memo stands in front of a Scheme's Verify and remembers, per signer, the
// one (payload, signature) pair the scheme last verified as valid. A call
// whose signer, payload bytes and signature bytes all equal the remembered
// triple is answered true without recomputation; every other call —
// another payload, one differing byte, an over-long input, a signer never
// heard from — goes to the scheme, and is remembered if the scheme says
// true. Verification is a function of those three arguments alone, so the
// answer is the scheme's own on every input: a forged or corrupted entry
// cannot equal a remembered valid one, pays the full verification and
// fails it.
//
// A Memo is plain memory for one goroutine: no lock, no atomic. Storage is
// per signer heard from — pages of memoPageSigners inline entries, sized to
// the scheme's signature length, allocated when a signer of the page first
// verifies — and nothing is allocated before that.
type Memo struct {
	scheme Scheme
	n      int
	// stride is the size of one entry, memoPayload plus the length of the
	// signatures remembered; zero until the first valid signature fixes it.
	stride int
	// pages[signer/memoPageSigners] holds the signer's entry at
	// (signer%memoPageSigners)*stride: a length byte (payload length plus
	// one, zero while empty), the payload, and from memoPayload on the
	// signature.
	pages [][]byte
	stats MemoStats
}

const (
	memoPageSigners = 8
	// memoPayload is the payload part of an entry: the length byte and up
	// to 31 payload bytes. The protocols sign 16 to 25.
	memoPayload = 32
)

// MemoStats counts a Memo's traffic: Asked-Computed verifications were
// answered from memory, Rejected is the part of Computed that failed.
type MemoStats struct {
	Asked, Computed, Rejected uint64
}

// NewMemo returns an empty memo in front of scheme, whose signers are
// 0..n-1.
func NewMemo(scheme Scheme, n int) *Memo { return &Memo{scheme: scheme, n: n} }

// Stats returns the counters so far.
func (m *Memo) Stats() MemoStats { return m.stats }

// Verify reports what the scheme's Verify reports.
//
//syncsim:hotpath
func (m *Memo) Verify(signer int, payload []byte, s Signature) bool {
	m.stats.Asked++
	if e := m.entry(signer); e != nil && int(e[0]) == len(payload)+1 &&
		bytes.Equal(e[1:int(e[0])], payload) &&
		subtle.ConstantTimeCompare(e[memoPayload:], s) == 1 {
		return true
	}
	m.stats.Computed++
	if !m.scheme.Verify(signer, payload, s) {
		m.stats.Rejected++
		return false
	}
	m.remember(signer, payload, s)
	return true
}

// entry returns signer's entry, nil if its page was never allocated.
//
//syncsim:hotpath
func (m *Memo) entry(signer int) []byte {
	if signer < 0 || signer/memoPageSigners >= len(m.pages) {
		return nil
	}
	page := m.pages[signer/memoPageSigners]
	if page == nil {
		return nil
	}
	off := signer % memoPageSigners * m.stride
	return page[off : off+m.stride]
}

// remember stores a triple the scheme just verified, allocating the
// signer's page if need be. A payload that does not fit an entry, or a
// signature of another length than the first one remembered, is simply not
// kept: it verifies in full next time too.
func (m *Memo) remember(signer int, payload []byte, s Signature) {
	if signer < 0 || signer >= m.n || len(payload) >= memoPayload {
		return
	}
	if m.stride == 0 {
		m.stride = memoPayload + len(s)
	}
	if len(s) != m.stride-memoPayload {
		return
	}
	if m.pages == nil {
		m.pages = make([][]byte, (m.n+memoPageSigners-1)/memoPageSigners)
	}
	if p := signer / memoPageSigners; m.pages[p] == nil {
		m.pages[p] = make([]byte, memoPageSigners*m.stride)
	}
	e := m.entry(signer)
	e[0] = byte(len(payload) + 1)
	copy(e[1:], payload)
	copy(e[memoPayload:], s)
}
