// Package probe is the observation layer of the simulator: one typed
// event stream shared by the engine, the network, the node runtime, and
// the harness, whose Result is a fold over it.
//
// Every observable moment of a run — a message put on a wire, a delivery,
// a drop, an accepted resynchronization pulse, a clock adjustment, a node
// boot, a partition cut or heal, a skew sample — is described by a value
// Event and fanned out through a Bus to any number of registered Probes.
// The design constraints, in order:
//
//  1. Zero cost when unused. Events are plain values (no pointers, no
//     interfaces), emission sites guard with Bus.Active (an array index
//     and a length test), and Emit never allocates. With no probe
//     attached the message hot path is identical to the un-instrumented
//     one; with a no-op probe attached it stays allocation-free (a
//     CI-enforced property, see BenchmarkPulseRound).
//  2. Per-type fan-out. Probes subscribe to the event types they consume,
//     so a skew collector does not tax the O(n^2)-per-round message path.
//  3. Replayability. An Event carries everything its consumers need, so a
//     recorded stream (see trace.go) replayed through the same collectors
//     reproduces their aggregates exactly.
//
// The package is a leaf: sim, network, node, metrics, and harness all
// import it, never the reverse.
package probe

// Type discriminates events.
type Type uint8

// Event types. The zero Type is invalid so that an uninitialized Event is
// recognizably broken rather than quietly miscounted.
const (
	typeInvalid Type = iota
	// TypeMessageSent: a message was accepted for transmission.
	// From/To/Kind/Round describe the envelope, T is the send instant and
	// Value the delivery instant chosen by the delay policy.
	TypeMessageSent
	// TypeMessageDelivered: a message reached a registered handler.
	// T is the delivery instant.
	TypeMessageDelivered
	// TypeMessageDropPolicy: the delay policy refused the message at send
	// time (adversarial drop on a faulty-endpoint link). T is the send
	// instant; Value is -1.
	TypeMessageDropPolicy
	// TypeMessageDropOffline: the message reached its delivery instant
	// with no handler registered (destination offline). T is the delivery
	// instant.
	TypeMessageDropOffline
	// TypeMessageDropLink: the topology provided no usable from->to link
	// at send time (absent edge or active partition); nothing went on a
	// wire. T is the send instant; Value is -1.
	TypeMessageDropLink
	// TypePulse: node From accepted resynchronization round Round at real
	// time T with logical clock Value. Faulty nodes emit pulses too (they
	// may fake them); consumers filter by From when they care.
	TypePulse
	// TypeResync: node From set its logical clock (a resynchronization
	// jump or slew retarget). Value is the new reading, Aux the old.
	TypeResync
	// TypeNodeBoot: node From booted at T (T > 0 means a late joiner).
	TypeNodeBoot
	// TypePartitionCut: a scheduled partition window opened at T; To is
	// the size of the left (low-id) side.
	TypePartitionCut
	// TypePartitionHeal: the partition window closed at T; To is the size
	// of the left side.
	TypePartitionHeal
	// TypeSkewSample: the sampler measured skew Value over Round nodes at
	// T.
	TypeSkewSample

	numTypes
)

// NumTypes is the count of Type values including the invalid zero: valid
// types are 1..NumTypes-1. Sized arrays indexed by Type (the bus here,
// the per-type row buffers of internal/tracelake) use it.
const NumTypes = int(numTypes)

// TypeByName resolves the stable snake_case name of a type (the inverse
// of Type.String), for query surfaces that take types as text.
func TypeByName(name string) (Type, bool) {
	t, ok := typeByName[name]
	return t, ok
}

var typeNames = [numTypes]string{
	typeInvalid:            "invalid",
	TypeMessageSent:        "message_sent",
	TypeMessageDelivered:   "message_delivered",
	TypeMessageDropPolicy:  "message_drop_policy",
	TypeMessageDropOffline: "message_drop_offline",
	TypeMessageDropLink:    "message_drop_link",
	TypePulse:              "pulse",
	TypeResync:             "resync",
	TypeNodeBoot:           "node_boot",
	TypePartitionCut:       "partition_cut",
	TypePartitionHeal:      "partition_heal",
	TypeSkewSample:         "skew_sample",
}

// String returns the stable snake_case name used by the JSONL trace
// format.
func (t Type) String() string {
	if t < numTypes {
		return typeNames[t]
	}
	return "invalid"
}

// MessageTypes lists the five per-message event types — the hot-path
// subscription set for traffic probes.
func MessageTypes() []Type {
	return []Type{
		TypeMessageSent, TypeMessageDelivered,
		TypeMessageDropPolicy, TypeMessageDropOffline, TypeMessageDropLink,
	}
}

// AllTypes lists every valid event type.
func AllTypes() []Type {
	out := make([]Type, 0, numTypes-1)
	for t := typeInvalid + 1; t < numTypes; t++ {
		out = append(out, t)
	}
	return out
}

// Event is one observation. It is a plain value — fixed size, no
// pointers — so emitting one costs a stack write and recording one costs
// a fixed number of column appends. Field meaning is per-Type (see the
// Type constants); unused fields are zero, except From/To which are -1
// when not applicable.
type Event struct {
	Type Type
	// Kind is the message kind for message events.
	Kind uint16
	// From and To are node ids (-1 when not applicable). TypePartitionCut
	// and TypePartitionHeal reuse To for the left-side size.
	From, To int32
	// Round is the protocol round for message and pulse events, and the
	// sampled node count for TypeSkewSample.
	Round int32
	// T is the virtual time of the event.
	T float64
	// Value is the per-type payload: delivery instant (sent), logical
	// clock (pulse), new logical reading (resync), skew (skew sample).
	Value float64
	// Aux is the secondary payload: the old logical reading for
	// TypeResync.
	Aux float64
}

// Probe consumes events. OnEvent runs inline at the emission site, on the
// single simulation goroutine of one run: implementations need no
// locking against the emitter, must not block, and — if they share state
// across concurrently executing runs — must be wrapped (see
// Synchronized). A probe that allocates per event forfeits the
// allocation-free hot path; the built-in collectors do not.
type Probe interface {
	OnEvent(Event)
}

// Func adapts a function to the Probe interface.
type Func func(Event)

// OnEvent implements Probe.
func (f Func) OnEvent(ev Event) { f(ev) }

// Collector is a Probe that folds its event subscription into a named,
// bounded-memory aggregate. Aggregates are deterministic in the event
// sequence alone, which is what makes trace replay reproduce them
// exactly.
type Collector interface {
	Probe
	// Name identifies the collector in rendered aggregates.
	Name() string
	// Types is the event subscription the collector needs.
	Types() []Type
	// Aggregate returns the folded statistics in a stable order.
	Aggregate() []Stat
}

// Batch is a run of events of one Type as equal-length columns, in that
// type's stream order. The slices belong to the producer (a decoded lake
// block) and are valid only during the Fold call.
type Batch struct {
	Type          Type
	T, Value, Aux []float64
	From, To      []int32
	Kind          []uint16
	Round         []int32
}

// Len returns the number of events in the batch.
func (b *Batch) Len() int { return len(b.T) }

// Folder is a Collector that can also take its subscription a column
// batch at a time, sparing a lake replay the cross-type merge and the
// per-event materialization. Batches of one type arrive in that type's
// stream order; batches of DIFFERENT types in no particular relative
// order — implement Fold only if the aggregate is a function of the
// per-type sequences, leaving exactly the state OnEvent over the same
// events does (the built-ins run both through one body).
//
// The hazard of an optional interface: a type that embeds a built-in
// collector and overrides OnEvent inherits Fold by promotion and must
// override it too, or replay bypasses the override.
type Folder interface {
	Collector
	Fold(*Batch)
}

// Stat is one named aggregate value.
type Stat struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
}

// Bus fans events out to probes by type. The zero value is ready to use
// and costs one nil-slice index per guarded emission site while empty.
// Attach is not synchronized with Emit: attach everything before the
// engine runs (the run entry points do).
type Bus struct {
	byType [numTypes][]Probe
	total  int
}

// Attach subscribes p to the given event types, or to every type when
// none are given. Attaching the same probe to the same type twice
// delivers events to it twice.
func (b *Bus) Attach(p Probe, types ...Type) {
	if p == nil {
		panic("probe: Attach(nil)")
	}
	if len(types) == 0 {
		types = AllTypes()
	}
	for _, t := range types {
		if t <= typeInvalid || t >= numTypes {
			panic("probe: Attach with invalid event type")
		}
		b.byType[t] = append(b.byType[t], p)
		b.total++
	}
}

// AttachCollector subscribes c to exactly the types it declares.
func (b *Bus) AttachCollector(c Collector) { b.Attach(c, c.Types()...) }

// AttachAll subscribes probes the way the replay entry points do: a
// Collector to the types it declares, any other probe to every type.
func (b *Bus) AttachAll(probes ...Probe) {
	for _, p := range probes {
		if c, ok := p.(Collector); ok {
			b.AttachCollector(c)
			continue
		}
		b.Attach(p)
	}
}

// Active reports whether any probe subscribes to t. Emission sites guard
// with it so that building the Event is also skipped when nobody listens.
func (b *Bus) Active(t Type) bool { return len(b.byType[t]) > 0 }

// AnyActive reports whether any probe is attached at all.
func (b *Bus) AnyActive() bool { return b.total > 0 }

// Emit delivers ev to every probe subscribed to its type, in attach
// order. It never allocates.
//
//syncsim:hotpath
func (b *Bus) Emit(ev Event) {
	for _, p := range b.byType[ev.Type] {
		p.OnEvent(ev)
	}
}

// Fold delivers batch to every probe subscribed to its type, in attach
// order. Every one must be a Folder: callers check before choosing Fold.
func (b *Bus) Fold(batch *Batch) {
	for _, p := range b.byType[batch.Type] {
		p.(Folder).Fold(batch)
	}
}
