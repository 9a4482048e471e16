package network

import (
	"fmt"
	"sync"
)

// Kind discriminates message envelopes. Kinds are small integers handed
// out by NewKind at package-init time, so protocols dispatch on an
// integer compare instead of a type switch over `any`, and scalar-only
// messages (a round number, a clock reading) cross the network without a
// single heap allocation.
type Kind uint16

// KindRaw is the zero Kind: an envelope whose meaning lives entirely in
// Payload. Raw wraps arbitrary values for tests and ad-hoc protocols.
const KindRaw Kind = 0

// Message is the typed network envelope. The transport-level sender is
// delivered alongside (handlers receive `from` separately, and the model's
// authenticated channels make it trustworthy); the envelope carries the
// protocol-level content:
//
//   - Kind selects the protocol message type.
//   - Src names a claimed origin for relayed traffic (broadcast
//     primitives re-broadcast other processes' announcements).
//   - Round and Value are scalar payloads; the common protocol messages
//     ("ready(k)", "my clock reads v") need nothing else and therefore
//     allocate nothing. Kind and Round alone ride the simulator's event
//     inline; an envelope with any Value but +0.0 waits in an arena slot
//     like a payload envelope, which returns its bits exactly.
//   - Payload carries structured content (signature sets, application
//     data). For messages fanned out by Broadcast the payload is shared
//     by all recipients: it is boxed once per broadcast, and the whole
//     envelope waits in one arena slot for all of a shard's copies.
//     Recipients must treat it as read-only.
type Message struct {
	Kind    Kind
	Src     NodeID
	Round   int
	Value   float64
	Payload any
}

// Raw wraps an arbitrary payload in a KindRaw envelope.
func Raw(payload any) Message { return Message{Payload: payload} }

var kinds = struct {
	mu    sync.Mutex
	names []string
}{names: []string{"raw"}}

// NewKind registers a new message kind under a diagnostic name and
// returns its id. Call it from package init (like protocol registration);
// it panics when the 16-bit kind space is exhausted.
func NewKind(name string) Kind {
	kinds.mu.Lock()
	defer kinds.mu.Unlock()
	if len(kinds.names) > 0xFFFF {
		panic("network: kind space exhausted")
	}
	kinds.names = append(kinds.names, name)
	return Kind(len(kinds.names) - 1)
}

// String returns the diagnostic name the kind was registered under.
func (k Kind) String() string {
	kinds.mu.Lock()
	defer kinds.mu.Unlock()
	if int(k) < len(kinds.names) {
		return kinds.names[k]
	}
	return fmt.Sprintf("Kind(%d)", uint16(k))
}
