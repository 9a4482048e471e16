package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"optsync/internal/probe"
	"optsync/internal/sim"
)

const (
	fanoutN         = 9
	fanoutLookahead = 0.05 // every fanout policy delays by at least this
)

// fanoutRec is one delivery as the recipient's handler saw it.
type fanoutRec struct {
	at   sim.Time
	from NodeID
	msg  Message
}

// fanoutTrace is everything observable about one scripted run.
type fanoutTrace struct {
	perNode [][]fanoutRec // handler view, by recipient
	events  []probe.Event // probe stream; its delivered events are the global delivery sequence
	stats   Stats
	slots   uint64 // arena slots taken, all shards
}

// runFanout drives a fixed script through fanout: node i fans round i out
// at t = 0.1*i, and the recipient i+1 of each such round relays round
// 100+i from inside its handler (a reentrant send during Dispatch). The
// last node never registers, so its traffic is dropped offline. shards ==
// 0 runs on one serial engine; shards >= 1 on that many shard engines
// with contiguous ownership.
func runFanout(shards int, policy Policy, topo Topology, envelope func(round int) Message,
	types []probe.Type, fanout func(nt *Net, from NodeID, msg Message)) fanoutTrace {
	const n = fanoutN
	owner := make([]int32, n)
	var (
		engs  []*sim.Engine
		nets  []*Net
		bus   *probe.Bus
		drain func()
	)
	if shards == 0 {
		e := sim.New(11)
		engs, nets, bus = []*sim.Engine{e}, []*Net{New(e, n, policy, topo)}, e.Probes()
		drain = func() { e.RunAll(0) }
	} else {
		coord := sim.NewShards(11, shards, fanoutLookahead)
		for i := range owner {
			owner[i] = int32(i * shards / n)
		}
		for i := 0; i < shards; i++ {
			engs = append(engs, coord.Shard(i))
		}
		nets, bus = NewSharded(coord, n, policy, topo, owner), coord.Global().Probes()
		drain = func() { coord.Drain(); coord.Close() }
	}
	tr := fanoutTrace{perNode: make([][]fanoutRec, n)}
	bus.Attach(probe.Func(func(ev probe.Event) { tr.events = append(tr.events, ev) }), types...)
	for i := 0; i < n; i++ {
		i, eng, nt := i, engs[owner[i]], nets[owner[i]]
		if i != n-1 {
			nt.Register(i, func(from NodeID, msg Message) {
				tr.perNode[i] = append(tr.perNode[i], fanoutRec{at: eng.Now(), from: from, msg: msg})
				if msg.Round == from && i == from+1 {
					fanout(nt, i, envelope(100+msg.Round))
				}
			})
		}
		eng.MustAtLane(int32(i), 0.1*float64(i), func() { fanout(nt, i, envelope(i)) })
	}
	drain()
	tr.stats = MergeStats(nets)
	for _, nt := range nets {
		tr.slots += nt.RuntimeStats().Slots
	}
	return tr
}

// TestBroadcastEqualsSendLoop is the fan-out loop's independent oracle:
// Broadcast(from, msg) must be indistinguishable from Send(from, to, msg)
// for to = 0..n-1 — same per-recipient and global delivery sequence, same
// Stats, same probe stream — and a sharded network must reproduce the
// serial one at every shard count.
func TestBroadcastEqualsSendLoop(t *testing.T) {
	sendLoop := func(nt *Net, from NodeID, msg Message) {
		for to := 0; to < nt.N(); to++ {
			nt.Send(from, to, msg)
		}
	}
	policies := []struct {
		name string
		p    Policy
	}{
		{"fixed", Fixed{D: 0.1}},
		{"uniform", Uniform{Min: fanoutLookahead, Max: 0.2}},
		{"spread", Spread{Min: fanoutLookahead, Max: 0.2, Slow: map[NodeID]bool{1: true, 4: true, 6: true}}},
		{"dropping", PerLink{Fn: func(from, to NodeID, _ sim.Time, rng *rand.Rand) float64 {
			if (from*7+to)%5 == 0 {
				return -1
			}
			return fanoutLookahead + 0.1*rng.Float64()
		}}},
	}
	topologies := []struct {
		name string
		topo func() Topology
	}{
		{"mesh", func() Topology { return nil }},
		{"circulant", func() Topology { return NewCirculant(fanoutN, 4) }},
		{"partitioned", func() Topology { return NewSplit(FullMesh{}, fanoutN, 4, 0.3, 0.6) }},
	}
	kind := NewKind("test/fanout")
	envelopes := []struct {
		name string
		make func(round int) Message
	}{
		{"inline", func(round int) Message { return Message{Kind: kind, Round: round} }},
		{"valued", func(round int) Message { return Message{Kind: kind, Round: round, Value: -float64(round) / 8} }}, // -0.0 at round 0
		{"payload", func(round int) Message { return Message{Kind: kind, Round: round, Payload: fmt.Sprint("p", round)} }},
	}
	// Observing drop-link events forces the full link scan; without them a
	// neighbour-listing topology takes the sparse fast path. Both must
	// match the Send loop, which always probes the link.
	subscriptions := []struct {
		name  string
		types []probe.Type
	}{
		{"all-probes", probe.MessageTypes()},
		{"no-droplink-probe", []probe.Type{probe.TypeMessageSent, probe.TypeMessageDelivered,
			probe.TypeMessageDropPolicy, probe.TypeMessageDropOffline}},
	}
	for _, pol := range policies {
		for _, top := range topologies {
			for _, env := range envelopes {
				for _, sub := range subscriptions {
					name := pol.name + "/" + top.name + "/" + env.name + "/" + sub.name
					t.Run(name, func(t *testing.T) {
						want := runFanout(0, pol.p, top.topo(), env.make, sub.types, (*Net).Broadcast)
						s := want.stats
						if s.Delivered == 0 || s.DroppedOffline == 0 ||
							(pol.name == "dropping") != (s.Dropped > 0) || (top.name == "mesh") != (s.DroppedLink == 0) {
							t.Fatalf("fixture does not exercise its case: %+v", s)
						}
						if s.Sent != s.Delivered+s.Dropped+s.DroppedOffline {
							t.Fatalf("Sent != Delivered + Dropped + DroppedOffline after drain: %+v", s)
						}
						if (env.name == "inline") != (want.slots == 0) {
							t.Fatalf("%s envelopes took %d arena slots", env.name, want.slots)
						}
						check := func(label string, got fanoutTrace) {
							t.Helper()
							if !reflect.DeepEqual(got.stats, want.stats) {
								t.Errorf("%s: stats %+v, want %+v", label, got.stats, want.stats)
							}
							if !reflect.DeepEqual(got.perNode, want.perNode) {
								t.Errorf("%s: per-recipient delivery sequences differ", label)
							}
							if !reflect.DeepEqual(got.events, want.events) {
								t.Errorf("%s: probe stream differs (%d events, want %d)", label, len(got.events), len(want.events))
							}
							if (env.name == "inline") != (got.slots == 0) {
								t.Errorf("%s: %s envelopes took %d arena slots", label, env.name, got.slots)
							}
						}
						check("send loop", runFanout(0, pol.p, top.topo(), env.make, sub.types, sendLoop))
						for k := 1; k <= 3; k++ {
							check(fmt.Sprintf("shards=%d", k), runFanout(k, pol.p, top.topo(), env.make, sub.types, (*Net).Broadcast))
						}
					})
				}
			}
		}
	}
}
