package sim

import randv2 "math/rand/v2"

// Purpose says what a derived random stream is for; streams of different
// purposes never coincide, whatever their ids. Each purpose has one
// consumer per id, so what a stream yields never depends on whether, when
// or how often anything else draws.
type Purpose uint8

const (
	// NodeStream is a node's hardware clock: its offset and its walk
	// (node.Config.Clocks), and nothing else. A protocol that needs
	// randomness gets a purpose of its own.
	NodeStream Purpose = iota
	// DelayStream is a sender's per-message delay draws (network.Net).
	DelayStream
)

// Stream is the generator behind every deterministic random stream of a
// simulation: 16 bytes of PCG-DXSM state, every output bit full quality,
// handed out as rand.New(stream) so consumers keep taking *rand.Rand.
// math/rand's own source is 607 words and a ~1 900-step seeding loop per
// stream — the per-node fixed cost that dominated large sparse runs — and
// folds its seed mod 2^31-1, which made streams collide at n = 65 536.
type Stream struct {
	pcg randv2.PCG //syncsim:allowlist detrand the one generator every stream constructor goes through
}

// NewStream returns the stream of (engine seed, id, purpose). The stream
// depends on those three alone — never on how many draws any other
// component made — which is what lets a sharded run consume exactly the
// random sequences the serial run does. Build it once per (id, purpose),
// for that purpose's one consumer: a second consumer of the same stream
// would make each one's draws depend on the other's. Seed derivation is
// part of the generator: one state word comes from the seed, the other
// from an injective packing of id (a node index; int32 everywhere on the
// wire) and purpose, so under one seed distinct (id, purpose) are distinct
// states by construction; each word goes through a bijective finaliser so
// adjacent seeds and ids do not start adjacent.
func NewStream(seed int64, id int, purpose Purpose) *Stream {
	s := new(Stream)
	s.pcg.Seed(mix64(uint64(seed)), mix64(uint64(id)<<8|uint64(purpose)))
	return s
}

// mix64 is SplitMix64's output finaliser, a bijection on 64-bit words.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Uint64, Int63 and Seed make *Stream a math/rand.Source64.
func (s *Stream) Uint64() uint64 { return s.pcg.Uint64() }

func (s *Stream) Int63() int64 { return int64(s.pcg.Uint64() >> 1) }

// Seed restarts the stream as NewStream(seed, 0, NodeStream).
func (s *Stream) Seed(seed int64) { *s = *NewStream(seed, 0, NodeStream) }
