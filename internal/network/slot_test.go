package network

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"optsync/internal/probe"
	"optsync/internal/sim"
)

// perRecipientNet is the network as it was before envelopes were shared: the
// same per-link sequence (linked → delay → probe → schedule), written
// without any of Net's fast paths, and one arena entry per accepted copy,
// never recycled. It is the oracle the slot arena is tested against.
type perRecipientNet struct {
	e        *sim.Engine
	n        int
	policy   Policy
	topo     Topology
	handlers []Handler
	stats    Stats
	rngs     map[NodeID]*rand.Rand
	target   int
	arena    []Message
}

func newPerRecipientNet(e *sim.Engine, n int, policy Policy, topo Topology) *perRecipientNet {
	if topo == nil {
		topo = FullMesh{}
	}
	r := &perRecipientNet{
		e: e, n: n, policy: policy, topo: topo, handlers: make([]Handler, n),
		stats: Stats{BySender: make([]uint64, n)}, rngs: map[NodeID]*rand.Rand{},
	}
	r.target = e.RegisterDispatcher(r)
	return r
}

func (r *perRecipientNet) Register(id NodeID, h Handler) { r.handlers[id] = h }

func (r *perRecipientNet) Send(from, to NodeID, msg Message) {
	now := r.e.Now()
	if !r.topo.Linked(from, to, now) {
		r.stats.DroppedLink++
		return
	}
	r.stats.Sent++
	r.stats.BySender[from]++
	rng := r.rngs[from]
	if rng == nil {
		rng = rand.New(sim.NewStream(r.e.Seed(), from, sim.DelayStream))
		r.rngs[from] = rng
	}
	d := r.policy.Delay(from, to, now, rng)
	if s, ok := r.topo.(DelayShaper); ok && d >= 0 {
		d = s.Shape(from, to, now, d, rng)
	}
	if d < 0 {
		r.stats.Dropped++
		return
	}
	if bus := r.e.Probes(); bus.Active(probe.TypeMessageSent) {
		bus.Emit(probe.Event{Type: probe.TypeMessageSent, Kind: uint16(msg.Kind),
			From: int32(from), To: int32(to), Round: int32(msg.Round), T: now, Value: now + d})
	}
	r.arena = append(r.arena, msg)
	r.e.MustAtMsg(now+d, r.target, sim.Message{From: int32(from), To: int32(to), Index: uint32(len(r.arena) - 1)})
}

func (r *perRecipientNet) Broadcast(from NodeID, msg Message) {
	for to := 0; to < r.n; to++ {
		r.Send(from, to, msg)
	}
}

func (r *perRecipientNet) Dispatch(_ sim.Time, m sim.Message) {
	msg := r.arena[m.Index]
	h := r.handlers[m.To]
	if h == nil {
		r.stats.DroppedOffline++
		return
	}
	r.stats.Delivered++
	r.e.SetExecLane(m.To)
	h(NodeID(m.From), msg)
}

// sender is what the slot script drives: Net and its oracle.
type sender interface {
	Send(from, to NodeID, msg Message)
	Broadcast(from NodeID, msg Message)
	Register(id NodeID, h Handler)
}

const (
	slotN         = 11
	slotLookahead = 0.02
)

// slotDelivery is one delivery as the recipient's handler saw it. The
// envelope's Value is logged as its bits (msg.Value zeroed), so -0.0 and a
// NaN compare exactly.
type slotDelivery struct {
	at       sim.Time
	from, to NodeID
	msg      Message
	value    uint64
}

// slotValues are the scalar values the script's valued envelopes carry:
// none of them fits the inline event, which has no Value field.
var slotValues = []float64{0.375, -2e-300, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef), math.Inf(-1)}

// slotWorld is one network under test, serial (one engine) or sharded.
type slotWorld struct {
	engs  []*sim.Engine
	nets  []sender
	owner []int32
	log   [][]slotDelivery // by recipient
	run   func(until sim.Time)
	drain func()
}

func slotPolicy() Policy {
	return PerLink{Fn: func(from, to NodeID, now sim.Time, rng *rand.Rand) float64 {
		if (from*5+to*3+int(now*40))%7 == 0 {
			return -1 // policy drop: this copy takes no reference
		}
		return slotLookahead + 0.2*rng.Float64()
	}}
}

func slotTopology(seed int64) Topology {
	switch seed % 3 {
	case 0:
		return nil
	case 1:
		return NewCirculant(slotN, 6) // absent links
	}
	return NewSplit(FullMesh{}, slotN, 4, 0.3, 0.9)
}

// slotScript installs a random interleaving of Send and Broadcast, inline,
// valued and payload envelopes, on w. Node slotN-1 never registers (offline
// recipient); a handler that receives a round divisible by three relays it
// onward, by Broadcast or Send, from inside Dispatch; with probeSends a
// probe answers some MessageSent events with a Send of its own, in the
// middle of whatever broadcast emitted them (serial worlds only: a sharded
// run replays probe events at the barrier).
func slotScript(seed int64, w *slotWorld, probeSends bool) {
	rng := rand.New(rand.NewSource(seed))
	w.log = make([][]slotDelivery, slotN)
	envelope := func(round int) Message {
		switch round % 4 {
		case 0:
			return Message{Round: round} // rides the event inline
		case 2:
			return Message{Round: round, Value: slotValues[round/4%len(slotValues)]} // parks in the arena
		}
		return Message{Round: round, Src: round % 5, Payload: fmt.Sprint("p", round)}
	}
	for i := 0; i < slotN-1; i++ {
		i, eng, nt := i, w.engs[w.owner[i]], w.nets[w.owner[i]]
		nt.Register(i, func(from NodeID, msg Message) {
			logged := msg
			logged.Value = 0
			w.log[i] = append(w.log[i], slotDelivery{at: eng.Now(), from: from, to: i, msg: logged, value: math.Float64bits(msg.Value)})
			if msg.Round%3 == 0 && msg.Round < 400 {
				if relay := envelope(msg.Round + 400); msg.Round%2 == 0 {
					nt.Broadcast(i, relay)
				} else {
					nt.Send(i, (i+from+1)%slotN, relay)
				}
			}
		})
	}
	for round := 1; round <= 120; round++ {
		from, to, round := rng.Intn(slotN), rng.Intn(slotN), round
		eng, nt := w.engs[w.owner[from]], w.nets[w.owner[from]]
		eng.MustAtLane(int32(from), 1.2*rng.Float64(), func() {
			if round%5 == 0 {
				nt.Send(from, to, envelope(round))
			} else {
				nt.Broadcast(from, envelope(round))
			}
		})
	}
	if probeSends {
		nt := w.nets[0]
		w.engs[0].Probes().Attach(probe.Func(func(ev probe.Event) {
			if ev.Round < 800 && (int(ev.Round)+int(ev.To))%6 == 0 {
				nt.Send(NodeID(ev.To), NodeID(ev.From), envelope(int(ev.Round)+800))
			}
		}), probe.TypeMessageSent)
	}
}

func serialSlotWorld(seed int64, build func(e *sim.Engine) sender) *slotWorld {
	e := sim.New(seed)
	return &slotWorld{
		engs: []*sim.Engine{e}, nets: []sender{build(e)}, owner: make([]int32, slotN),
		run: e.Run, drain: func() { e.RunAll(0) },
	}
}

func shardedSlotWorld(seed int64, k int, topo Topology) (*slotWorld, []*Net) {
	coord := sim.NewShards(seed, k, slotLookahead)
	w := &slotWorld{owner: make([]int32, slotN), run: coord.Run, drain: func() { coord.Drain(); coord.Close() }}
	for i := range w.owner {
		w.owner[i] = int32(i * k / slotN)
	}
	nets := NewSharded(coord, slotN, slotPolicy(), topo, w.owner)
	for i, nt := range nets {
		w.engs, w.nets = append(w.engs, coord.Shard(i)), append(w.nets, nt)
	}
	return w, nets
}

// requireArenaIdle fails unless every slot of every arena is back on its
// free list with no reference left.
func requireArenaIdle(t *testing.T, label string, nets ...*Net) {
	t.Helper()
	for i, nt := range nets {
		if used := len(nt.arena) - len(nt.freeSlots); used != 0 {
			t.Errorf("%s: net %d has %d of %d slots in use after the drain", label, i, used, len(nt.arena))
		}
		for idx, s := range nt.arena {
			if s.refs != 0 || s.msg != (Message{}) {
				t.Errorf("%s: net %d slot %d left with %d references, envelope %+v", label, i, idx, s.refs, s.msg)
			}
		}
	}
}

// TestSlotArenaMatchesPerRecipientNetwork drives Net and the per-recipient
// oracle through the same random scripts. Sharing one envelope between the
// copies of a broadcast must be unobservable: equal delivery sequences
// (at, from, to, msg), equal Stats, serial and at 2 and 3 shards, and every
// slot's count back at zero once the queue drains.
func TestSlotArenaMatchesPerRecipientNetwork(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		for _, probeSends := range []bool{false, true} {
			name := fmt.Sprintf("seed=%d/probeSends=%v", seed, probeSends)
			ref := serialSlotWorld(seed, func(e *sim.Engine) sender {
				return newPerRecipientNet(e, slotN, slotPolicy(), slotTopology(seed))
			})
			slotScript(seed, ref, probeSends)
			ref.drain()
			want := ref.nets[0].(*perRecipientNet).stats
			if want.Delivered == 0 || want.Dropped == 0 || want.DroppedOffline == 0 || (seed%3 != 0) != (want.DroppedLink > 0) {
				t.Fatalf("%s: script does not exercise its cases: %+v", name, want)
			}

			var nt *Net
			real := serialSlotWorld(seed, func(e *sim.Engine) sender {
				nt = New(e, slotN, slotPolicy(), slotTopology(seed))
				return nt
			})
			slotScript(seed, real, probeSends)
			real.drain()
			if !reflect.DeepEqual(real.log, ref.log) {
				t.Errorf("%s: delivery sequences differ from the per-recipient network's", name)
			}
			if got := nt.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: stats %+v, want %+v", name, got, want)
			}
			if rt := nt.RuntimeStats(); rt.Slots == 0 || rt.Refs <= rt.Slots {
				t.Errorf("%s: %d slots for %d references: no envelope was shared", name, rt.Slots, rt.Refs)
			}
			requireArenaIdle(t, name, nt)
			if probeSends {
				continue
			}
			for k := 2; k <= 3; k++ {
				sh, nets := shardedSlotWorld(seed, k, slotTopology(seed))
				slotScript(seed, sh, false)
				sh.drain()
				label := fmt.Sprintf("%s/shards=%d", name, k)
				if !reflect.DeepEqual(sh.log, ref.log) {
					t.Errorf("%s: per-recipient delivery sequences differ", label)
				}
				if got := MergeStats(nets); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: stats %+v, want %+v", label, got, want)
				}
				requireArenaIdle(t, label, nets...)
			}
		}
	}
}

// TestSlotsSurviveAHorizonStop: a run stopped at its horizon with copies
// still in flight holds their slots, and leaks none once it is drained.
func TestSlotsSurviveAHorizonStop(t *testing.T) {
	for k := 1; k <= 3; k++ {
		w, nets := shardedSlotWorld(5, k, nil)
		slotScript(5, w, false)
		w.run(0.6)
		held := 0
		for _, nt := range nets {
			held += len(nt.arena) - len(nt.freeSlots)
		}
		if held == 0 {
			t.Fatalf("shards=%d: no slot held at the horizon; fixture stops too late", k)
		}
		w.drain()
		requireArenaIdle(t, fmt.Sprintf("shards=%d", k), nets...)
	}
}

// TestSlotCountDoesNotWrap: one broadcast to 70 000 recipients is 70 000
// references to one slot — more than 16 bits hold.
func TestSlotCountDoesNotWrap(t *testing.T) {
	const n = 70_000
	e := sim.New(1)
	nt := New(e, n, Uniform{Min: 0.001, Max: 0.002}, nil)
	delivered := 0
	for i := 0; i < n; i++ {
		nt.Register(i, func(_ NodeID, msg Message) {
			if msg.Payload != "all" {
				t.Fatalf("delivery %d read envelope %+v from a recycled slot", delivered, msg)
			}
			delivered++
		})
	}
	nt.Broadcast(0, Raw("all"))
	if len(nt.arena) != 1 || nt.arena[0].refs != n {
		t.Fatalf("broadcast parked %d slots, first with %d references; want 1 slot with %d", len(nt.arena), nt.arena[0].refs, n)
	}
	e.RunAll(0)
	if delivered != n {
		t.Fatalf("%d of %d copies delivered", delivered, n)
	}
	requireArenaIdle(t, "n=70000", nt)
}
