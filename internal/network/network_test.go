package network

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"optsync/internal/probe"
	"optsync/internal/sim"
)

// PerLink delegates to an arbitrary function of the link; use for scripted
// adversarial schedules.
type PerLink struct {
	Fn func(from, to NodeID, now sim.Time, rng *rand.Rand) float64
}

var _ Policy = PerLink{}

// Delay implements Policy.
func (p PerLink) Delay(from, to NodeID, now sim.Time, rng *rand.Rand) float64 {
	return p.Fn(from, to, now, rng)
}

// Drop unconditionally drops everything.
type Drop struct{}

var _ Policy = Drop{}

// Delay implements Policy.
func (Drop) Delay(_, _ NodeID, _ sim.Time, _ *rand.Rand) float64 { return -1 }

// MinDelay implements MinDelayer: a policy that never delivers anything
// places no constraint on the safe window.
func (Drop) MinDelay() float64 { return math.Inf(1) }

// NewSplit builds a single At->Heal window cutting the leftSize
// lowest-id nodes from the rest of an n-node cluster.
func NewSplit(base Topology, n, leftSize int, at, heal float64) *Partitioned {
	left := make([]bool, n)
	for i := 0; i < leftSize && i < n; i++ {
		left[i] = true
	}
	return &Partitioned{Base: base, Windows: []PartitionWindow{{At: at, Heal: heal, Left: left}}}
}

func TestSendDeliversAfterFixedDelay(t *testing.T) {
	e := sim.New(1)
	nt := New(e, 2, Fixed{D: 0.5}, nil)
	var gotFrom NodeID = -1
	var gotMsg Message
	var at sim.Time
	nt.Register(1, func(from NodeID, msg Message) {
		gotFrom, gotMsg, at = from, msg, e.Now()
	})
	nt.Send(0, 1, Raw("hello"))
	e.RunAll(0)
	if gotFrom != 0 || gotMsg.Payload != "hello" || at != 0.5 {
		t.Fatalf("delivery = (%v, %v, %v)", gotFrom, gotMsg, at)
	}
}

func TestBroadcastReachesAllIncludingSelf(t *testing.T) {
	e := sim.New(1)
	nt := New(e, 4, Fixed{D: 0.1}, nil)
	got := make([]int, 4)
	for i := 0; i < 4; i++ {
		i := i
		nt.Register(i, func(from NodeID, msg Message) { got[i]++ })
	}
	nt.Broadcast(2, Raw("m"))
	e.RunAll(0)
	for i, c := range got {
		if c != 1 {
			t.Fatalf("node %d received %d copies", i, c)
		}
	}
}

// A probe that injects traffic by calling Broadcast reentrantly from
// OnEvent must not corrupt the outer broadcast's delivery batches: with a
// fixed delay both calls share a delivery instant, and a shared scratch
// bucket map would merge the inner recipients into the outer batch
// (wrong sender, wrong payload).
func TestProbeReentrantBroadcast(t *testing.T) {
	e := sim.New(1)
	nt := New(e, 3, Fixed{D: 0.1}, nil)
	type rec struct {
		to, from NodeID
		round    int
	}
	var got []rec
	for i := 0; i < 3; i++ {
		i := i
		nt.Register(i, func(from NodeID, msg Message) {
			got = append(got, rec{to: i, from: from, round: msg.Round})
		})
	}
	injected := false
	e.Probes().Attach(probe.Func(func(ev probe.Event) {
		if !injected && ev.Round == 1 {
			injected = true
			nt.Broadcast(2, Message{Round: 2}) // inject from another sender
		}
	}), probe.TypeMessageSent)
	nt.Broadcast(0, Message{Round: 1})
	e.RunAll(0)
	if len(got) != 6 {
		t.Fatalf("%d deliveries, want 6", len(got))
	}
	for _, r := range got {
		wantFrom := NodeID(0)
		if r.round == 2 {
			wantFrom = 2
		}
		if r.from != wantFrom {
			t.Fatalf("round %d delivered with sender %d, want %d (batch corruption)", r.round, r.from, wantFrom)
		}
	}
	// Each node got exactly one copy of each round.
	seen := map[rec]int{}
	for _, r := range got {
		seen[r]++
	}
	for r, n := range seen {
		if n != 1 {
			t.Fatalf("delivery %+v duplicated %d times", r, n)
		}
	}
}

// Both drop paths must hit their own counter and their own event type: a
// policy drop is charged to Dropped at send time (TypeMessageDropPolicy);
// an offline destination is charged to DroppedOffline at delivery time
// (a genuine TypeMessageSent preceded it — the old implementation folded
// this into Dropped, contradicting the trace).
func TestDropPathCounters(t *testing.T) {
	e := sim.New(1)

	// Path 1: policy drop at send time.
	nt := New(e, 2, Drop{}, nil)
	nt.Register(1, func(NodeID, Message) {})
	var events []probe.Type
	e.Probes().Attach(probe.Func(func(ev probe.Event) {
		events = append(events, ev.Type)
	}), probe.MessageTypes()...)
	nt.Send(0, 1, Raw("m"))
	e.RunAll(0)
	if s := nt.Stats(); s.Dropped != 1 || s.DroppedOffline != 0 || s.Delivered != 0 {
		t.Fatalf("policy drop stats = %+v", s)
	}
	if len(events) != 1 || events[0] != probe.TypeMessageDropPolicy {
		t.Fatalf("policy drop emitted %v, want [message_drop_policy]", events)
	}

	// Path 2: offline destination at delivery time. A fresh engine keeps
	// the event streams separate.
	e2 := sim.New(1)
	nt2 := New(e2, 2, Fixed{D: 0.1}, nil)
	events = nil
	e2.Probes().Attach(probe.Func(func(ev probe.Event) {
		events = append(events, ev.Type)
	}), probe.MessageTypes()...)
	nt2.Send(0, 1, Raw("m")) // no handler registered for 1
	e2.RunAll(0)
	if s := nt2.Stats(); s.Dropped != 0 || s.DroppedOffline != 1 || s.Delivered != 0 {
		t.Fatalf("offline drop stats = %+v", s)
	}
	want := []probe.Type{probe.TypeMessageSent, probe.TypeMessageDropOffline}
	if len(events) != 2 || events[0] != want[0] || events[1] != want[1] {
		t.Fatalf("offline drop emitted %v, want %v", events, want)
	}
}

func TestStatsCounting(t *testing.T) {
	e := sim.New(1)
	nt := New(e, 3, Fixed{D: 0}, nil)
	for i := 0; i < 3; i++ {
		nt.Register(i, func(NodeID, Message) {})
	}
	nt.Broadcast(0, Raw("a"))
	nt.Send(1, 2, Raw("b"))
	e.RunAll(0)
	s := nt.Stats()
	if s.Sent != 4 || s.Delivered != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BySender[0] != 3 || s.BySender[1] != 1 || s.BySender[2] != 0 {
		t.Fatalf("BySender = %v", s.BySender)
	}
	// Stats hands out a copy: mutating it must not reach the counters.
	s.BySender[0] = 99
	if got := nt.Stats().BySender[0]; got != 3 {
		t.Fatalf("Stats() aliases the live BySender counters (got %d)", got)
	}
}

func TestDropPolicy(t *testing.T) {
	e := sim.New(1)
	nt := New(e, 2, Drop{}, nil)
	delivered := false
	nt.Register(1, func(NodeID, Message) { delivered = true })
	nt.Send(0, 1, Raw("m"))
	e.RunAll(0)
	if delivered {
		t.Fatal("Drop policy delivered a message")
	}
	if s := nt.Stats(); s.Dropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestUniformPolicyRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	u := Uniform{Min: 0.2, Max: 0.7}
	for i := 0; i < 1000; i++ {
		d := u.Delay(0, 1, 0, rng)
		if d < 0.2 || d > 0.7 {
			t.Fatalf("delay %v outside [0.2, 0.7]", d)
		}
	}
}

func TestUniformPolicyInvertedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("inverted range did not panic")
		}
	}()
	Uniform{Min: 1, Max: 0}.Delay(0, 1, 0, rand.New(rand.NewSource(1)))
}

func TestSpreadPolicy(t *testing.T) {
	p := Spread{Min: 0.1, Max: 0.9, Slow: map[NodeID]bool{1: true}}
	rng := rand.New(rand.NewSource(1))
	if d := p.Delay(0, 1, 0, rng); d != 0.9 {
		t.Fatalf("slow target delay = %v", d)
	}
	if d := p.Delay(0, 2, 0, rng); d != 0.1 {
		t.Fatalf("fast target delay = %v", d)
	}
}

func TestPerLinkPolicy(t *testing.T) {
	p := PerLink{Fn: func(from, to NodeID, _ sim.Time, _ *rand.Rand) float64 {
		return float64(from*10 + to)
	}}
	if d := p.Delay(1, 2, 0, nil); d != 12 {
		t.Fatalf("delay = %v", d)
	}
}

// TestProbeMessageEvents pins the per-message event payloads: a send
// carries its delivery instant in Value, a delivery carries the envelope
// scalars, and the whole stream rides the engine bus.
func TestProbeMessageEvents(t *testing.T) {
	e := sim.New(1)
	nt := New(e, 2, Fixed{D: 0.25}, nil)
	nt.Register(1, func(NodeID, Message) {})
	k := NewKind("test/probe-events")
	var got []probe.Event
	e.Probes().Attach(probe.Func(func(ev probe.Event) {
		got = append(got, ev)
	}), probe.TypeMessageSent, probe.TypeMessageDelivered)
	nt.Send(0, 1, Message{Kind: k, Round: 9})
	e.RunAll(0)
	if len(got) != 2 {
		t.Fatalf("saw %d events, want sent+delivered", len(got))
	}
	sent, del := got[0], got[1]
	if sent.Type != probe.TypeMessageSent || sent.From != 0 || sent.To != 1 ||
		sent.Kind != uint16(k) || sent.Round != 9 || sent.T != 0 || sent.Value != 0.25 {
		t.Fatalf("sent event = %+v", sent)
	}
	if del.Type != probe.TypeMessageDelivered || del.T != 0.25 || del.Kind != uint16(k) {
		t.Fatalf("delivered event = %+v", del)
	}
	if nt.Probes() != e.Probes() {
		t.Fatal("Net.Probes must expose the engine bus")
	}
}

func TestOutOfRangeIDsPanic(t *testing.T) {
	e := sim.New(1)
	nt := New(e, 2, Fixed{}, nil)
	for _, fn := range []func(){
		func() { nt.Send(-1, 0, Raw("m")) },
		func() { nt.Send(0, 7, Raw("m")) },
		func() { nt.Register(9, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range id did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestKindRegistry(t *testing.T) {
	k := NewKind("test/ping")
	if k == KindRaw {
		t.Fatal("NewKind returned the raw kind")
	}
	if k.String() != "test/ping" {
		t.Fatalf("kind name = %q", k.String())
	}
	if KindRaw.String() != "raw" {
		t.Fatalf("raw kind name = %q", KindRaw.String())
	}
}

// --- Topology ---

func TestWANRegionsLinking(t *testing.T) {
	// 12 nodes, 4 regions of 3: regions 0-1-2-3 on a ring.
	w := NewWANRegions(12, 4, 0.02)
	if r := w.Region(0); r != 0 {
		t.Fatalf("region(0) = %d", r)
	}
	if r := w.Region(11); r != 3 {
		t.Fatalf("region(11) = %d", r)
	}
	if !w.Linked(0, 2, 0) { // same region
		t.Fatal("intra-region link missing")
	}
	if !w.Linked(0, 3, 0) { // regions 0 and 1 are adjacent
		t.Fatal("adjacent-region link missing")
	}
	if !w.Linked(0, 11, 0) { // regions 0 and 3 wrap around the ring
		t.Fatal("ring wrap-around link missing")
	}
	if w.Linked(0, 6, 0) { // regions 0 and 2 are opposite
		t.Fatal("non-adjacent regions must not be linked")
	}
	// Inter-region delay pays the hop envelope, intra-region does not.
	rng := rand.New(rand.NewSource(1))
	if d := w.Shape(0, 1, 0, 0.01, rng); d != 0.01 {
		t.Fatalf("intra-region shape = %v", d)
	}
	for i := 0; i < 100; i++ {
		d := w.Shape(0, 3, 0, 0.01, rng)
		if d < 0.01+w.HopDelay || d > 0.01+w.HopDelay+w.HopJitter {
			t.Fatalf("inter-region shape %v outside hop envelope", d)
		}
	}
}

func TestCirculantDegrees(t *testing.T) {
	g := NewCirculant(10, 4)
	for i := 0; i < 10; i++ {
		if d := g.Degree(i); d != 4 {
			t.Fatalf("node %d degree = %d, want 4", i, d)
		}
	}
	if !g.Linked(0, 2, 0) || g.Linked(0, 3, 0) {
		t.Fatal("circulant adjacency wrong")
	}
	if !g.Linked(0, 0, 0) {
		t.Fatal("self-link must always exist")
	}
	if !g.Linked(0, 9, 0) { // wrap-around
		t.Fatal("circulant wrap-around missing")
	}
}

func TestSparseTopologyGatesTraffic(t *testing.T) {
	e := sim.New(1)
	g := NewSplit(FullMesh{}, 3, 2, 0, 0) // 2 is isolated for good
	nt := New(e, 3, Fixed{D: 0.1}, g)
	got := make([]int, 3)
	for i := 0; i < 3; i++ {
		i := i
		nt.Register(i, func(NodeID, Message) { got[i]++ })
	}
	nt.Broadcast(0, Raw("m"))
	e.RunAll(0)
	if got[0] != 1 || got[1] != 1 || got[2] != 0 {
		t.Fatalf("deliveries = %v", got)
	}
	s := nt.Stats()
	if s.Sent != 2 || s.DroppedLink != 1 {
		t.Fatalf("stats = %+v (unlinked sends must not count as Sent)", s)
	}
}

func TestPartitionWindowCutsAndHeals(t *testing.T) {
	e := sim.New(1)
	topo := NewSplit(FullMesh{}, 4, 2, 1.0, 2.0) // {0,1} | {2,3} during [1,2)
	nt := New(e, 4, Fixed{D: 0.01}, topo)
	var delivered int
	for i := 0; i < 4; i++ {
		nt.Register(i, func(NodeID, Message) { delivered++ })
	}

	send := func() { nt.Send(0, 3, Raw("x")); nt.Send(0, 1, Raw("y")) }
	send() // before the cut: both pass
	e.Run(1.5)
	send() // during the cut: cross-cut send suppressed
	e.Run(2.5)
	send() // after heal: both pass
	e.RunAll(0)

	if delivered != 5 {
		t.Fatalf("delivered = %d, want 5", delivered)
	}
	if s := nt.Stats(); s.DroppedLink != 1 || s.Sent != 5 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPartitionNeverHeals(t *testing.T) {
	topo := NewSplit(FullMesh{}, 4, 2, 1.0, 0) // Heal <= At: permanent
	if topo.Linked(0, 3, 0.5) == false {
		t.Fatal("cut active before At")
	}
	if topo.Linked(0, 3, 100) {
		t.Fatal("permanent cut healed")
	}
	if !topo.Linked(0, 1, 100) {
		t.Fatal("same-side link cut")
	}
}

// Registering endpoints (and building their per-node random streams) in
// a different order must leave the simulation byte-identical: a node's
// stream, sim.NewStream(seed, id, sim.NodeStream), derives from (seed, id)
// alone instead of from global draw order. Boot instants here are drawn
// from the per-node streams, so they — and every delivery that follows —
// would scramble under reordering if a stream leaked call-order
// dependence.
func TestRegistrationOrderInvariance(t *testing.T) {
	run := func(order []int) []string {
		e := sim.New(7)
		nt := New(e, 4, Uniform{Min: 0.002, Max: 0.01}, nil)
		var trace []string
		for _, id := range order {
			id := id
			rng := rand.New(sim.NewStream(e.Seed(), id, sim.NodeStream))
			boot := 0.01 + rng.Float64()*0.1
			nt.Register(id, func(from NodeID, msg Message) {
				trace = append(trace, fmt.Sprintf("%d<-%d r%d @%.12f", id, from, msg.Round, e.Now()))
			})
			e.MustAt(boot, func() { nt.Broadcast(id, Message{Round: id}) })
		}
		e.RunAll(0)
		return trace
	}
	want := run([]int{0, 1, 2, 3})
	for _, order := range [][]int{{3, 1, 0, 2}, {2, 3, 1, 0}, {1, 0, 3, 2}} {
		got := run(order)
		if len(got) != len(want) {
			t.Fatalf("order %v: %d deliveries, want %d", order, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order %v diverged at %d:\n got  %s\n want %s", order, i, got[i], want[i])
			}
		}
	}
}

// Property: with a Uniform policy, messages between registered endpoints
// are always delivered within [Min, Max] of the send time, in order
// consistency with the engine (delivery time >= send time).
func TestDeliveryWithinBoundsProperty(t *testing.T) {
	f := func(seed int64, raw []uint8) bool {
		e := sim.New(seed)
		nt := New(e, 3, Uniform{Min: 0.1, Max: 0.4}, nil)
		type rec struct{ sent, got sim.Time }
		var recs []rec
		pendingSent := map[int]sim.Time{}
		seq := 0
		for i := 0; i < 3; i++ {
			nt.Register(i, func(_ NodeID, msg Message) {
				recs = append(recs, rec{pendingSent[msg.Round], e.Now()})
			})
		}
		for _, r := range raw {
			from, to := int(r%3), int((r/3)%3)
			pendingSent[seq] = e.Now()
			nt.Send(from, to, Message{Round: seq})
			seq++
			e.Run(e.Now() + float64(r%7)/100)
		}
		e.RunAll(0)
		if len(recs) != len(raw) {
			return false
		}
		for _, r := range recs {
			d := r.got - r.sent
			if d < 0.1-1e-12 || d > 0.4+1e-12 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeafCopyKeepsTheSenderLanesKeys: a copy counted for a deaf recipient
// takes the sender lane's sequence number as a queued copy does, so what
// the sender schedules next carries the same key either way; it is settled
// into Delivered when the clock reaches its instant, and a message_delivered
// probe queues it again.
func TestDeafCopyKeepsTheSenderLanesKeys(t *testing.T) {
	run := func(deaf, probed bool) (sim.Key, Stats, RuntimeStats, int) {
		e := sim.New(1)
		nt := New(e, 3, Fixed{D: 0.5}, nil)
		handed := 0
		for i := 0; i < 3; i++ {
			nt.Register(i, func(NodeID, Message) { handed++ })
		}
		if deaf {
			nt.SetDeafFrom([]sim.Time{math.Inf(1), math.Inf(1), 0})
		}
		if probed {
			e.Probes().Attach(probe.Func(func(probe.Event) {}), probe.TypeMessageDelivered)
		}
		var next sim.Key
		e.MustAtLane(0, 0, func() {
			nt.Broadcast(0, Message{Round: 1})
			e.MustAt(0.75, func() { next, _ = e.ExecTag() })
		})
		e.Run(0.25)
		if s := nt.Stats(); s.Delivered != 0 {
			t.Errorf("deaf=%v: %d delivered before any copy is due", deaf, s.Delivered)
		}
		e.Run(1)
		return next, nt.Stats(), nt.RuntimeStats(), handed
	}
	wantKey, wantStats, _, _ := run(false, false)
	for _, probed := range []bool{false, true} {
		key, stats, rt, handed := run(true, probed)
		if key != wantKey || fmt.Sprint(stats) != fmt.Sprint(wantStats) {
			t.Errorf("probed=%v: next key %+v and stats %+v, want %+v and %+v", probed, key, stats, wantKey, wantStats)
		}
		want := uint64(1) // node 2's copy, counted
		if probed {
			want = 0
		}
		if rt.Deaf != want || handed != 3-int(want) {
			t.Errorf("probed=%v: %d copies counted deaf, %d handed over", probed, rt.Deaf, handed)
		}
	}
}
