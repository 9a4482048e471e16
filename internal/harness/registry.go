package harness

import (
	"fmt"
	"sort"
	"sync"

	"optsync/internal/adversary"
	"optsync/internal/node"
)

// ProtocolBuilder constructs the protocol a *correct* process runs under
// the given spec. Builders must be pure: every call returns a fresh
// protocol instance and consumes no shared mutable state, so that
// independent runs can execute concurrently.
type ProtocolBuilder func(spec Spec) (node.Protocol, error)

// AttackEnv carries the per-node wiring an attack builder may need beyond
// the spec itself.
type AttackEnv struct {
	// ID is the node id of the faulty process being built.
	ID int
	// Leader reports whether this is the lowest-id faulty node; coalition
	// attacks conventionally elect it as coordinator.
	Leader bool
	// Coalition is the shared state of all faulty nodes in this run.
	Coalition *adversary.Collusion
	// RushRounds is the number of protocol rounds an attack pacing itself
	// at Spec.RushInterval can fire within the horizon.
	RushRounds int
}

// AttackBuilder constructs the protocol a *faulty* process runs. A builder
// that only applies to certain algorithms should return an error for the
// rest rather than misbehave silently.
type AttackBuilder func(spec Spec, env AttackEnv) (node.Protocol, error)

// EnvelopeFunc computes a protocol's admissible long-run logical clock
// rate interval over a measurement span.
type EnvelopeFunc func(spec Spec, span float64) (lo, hi float64)

type protocolEntry struct {
	build    ProtocolBuilder
	envelope EnvelopeFunc
}

// ProtocolOption customizes a protocol registration.
type ProtocolOption func(*protocolEntry)

// WithEnvelope attaches protocol-specific accuracy bounds to a
// registration. Protocols registered without it are held to the plain
// hardware drift envelope plus regression slack (see envelopeBounds).
func WithEnvelope(fn EnvelopeFunc) ProtocolOption {
	return func(e *protocolEntry) { e.envelope = fn }
}

// registry is a name table filled at program initialization and read by
// every run.
type registry[K ~string, V any] struct {
	kind    string // "algorithm", "attack", "topology": names it in errors
	mu      sync.RWMutex
	entries map[K]V
}

func newRegistry[K ~string, V any](kind string) *registry[K, V] {
	return &registry[K, V]{kind: kind, entries: make(map[K]V)}
}

var (
	protocols  = newRegistry[Algorithm, *protocolEntry]("algorithm")
	attacks    = newRegistry[Attack, AttackBuilder]("attack")
	topologies = newRegistry[string, TopologyBuilder]("topology")
)

// add registers v under name. It panics if the name is empty, the
// builder is nil or the name is already taken.
func (r *registry[K, V]) add(name K, v V, nilBuilder bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var why string
	switch _, dup := r.entries[name]; {
	case name == "":
		why = "empty name"
	case nilBuilder:
		why = "nil builder"
	case dup:
		why = "registered twice"
	default:
		r.entries[name] = v
		return
	}
	panic(fmt.Sprintf("harness: %s %q: %s", r.kind, name, why))
}

func (r *registry[K, V]) lookup(name K) (V, error) {
	r.mu.RLock()
	v, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return v, fmt.Errorf("harness: unknown %s %q (registered: %v)", r.kind, name, r.names())
	}
	return v, nil
}

// names returns the registered names, sorted.
func (r *registry[K, V]) names() []K {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]K, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RegisterProtocol makes an algorithm constructible by name through Spec.
// It panics if the name is empty, the builder is nil, or the name is
// already taken — registration is a program-initialization step, like
// database/sql driver registration.
func RegisterProtocol(name Algorithm, build ProtocolBuilder, opts ...ProtocolOption) {
	entry := &protocolEntry{build: build}
	for _, opt := range opts {
		opt(entry)
	}
	protocols.add(name, entry, build == nil)
}

// RegisterAttack makes a faulty-node behaviour constructible by name
// through Spec. Same registration contract as RegisterProtocol.
func RegisterAttack(name Attack, build AttackBuilder) { attacks.add(name, build, build == nil) }

// Protocols returns the registered algorithm names, sorted.
func Protocols() []Algorithm { return protocols.names() }

// Attacks returns the registered attack names, sorted.
func Attacks() []Attack { return attacks.names() }

// NewProtocol builds the correct-node protocol for the spec via the
// registry. Attack builders that wrap correct behaviour (crash-mid, bias)
// use it to obtain their inner protocol.
func NewProtocol(spec Spec) (node.Protocol, error) {
	entry, err := protocols.lookup(spec.Algo)
	if err != nil {
		return nil, err
	}
	return entry.build(spec)
}

// newAttack builds the faulty-node protocol for the spec via the registry.
func newAttack(spec Spec, env AttackEnv) (node.Protocol, error) {
	build, err := attacks.lookup(spec.Attack)
	if err != nil {
		return nil, err
	}
	return build(spec, env)
}

// protocolEnvelope returns the registered envelope bounds for the
// algorithm, or nil if none (or the algorithm is unknown).
func protocolEnvelope(name Algorithm) EnvelopeFunc {
	if entry, err := protocols.lookup(name); err == nil {
		return entry.envelope
	}
	return nil
}
