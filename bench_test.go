// The allocation guards of the message hot path. Timing lives in bench/
// (bash bench/run.sh and its layer drivers); what is here needs no clock:
// a pulse round, serial or sharded, probed or not, allocates nothing once
// warm.
package optsync

import (
	"fmt"
	"testing"

	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/sim"
)

// benchPulseKind tags the fixtures' round announcements.
var benchPulseKind = network.NewKind("bench/pulse")

// noopProbe is the cheapest possible subscriber: with it attached, the
// allocation assertion proves the emission path itself does not allocate.
type noopProbe struct{ events uint64 }

func (p *noopProbe) OnEvent(Event) { p.events++ }

// benchPulseNet builds the n-node broadcast fixture with a few warm
// rounds so the event buckets and delivery pools are at steady-state
// size: the ladder queue re-anchors its bucket grid on every round, so
// per-bucket occupancy (and with it the retained capacity) needs several
// rounds to reach its high-water mark.
func benchPulseNet(n int, probed bool) (*sim.Engine, *network.Net, *noopProbe) {
	e := sim.New(1)
	nt := network.New(e, n, network.Uniform{Min: 0.002, Max: 0.01}, nil)
	for i := 0; i < n; i++ {
		nt.Register(i, func(node.ID, network.Message) {})
	}
	var p *noopProbe
	if probed {
		p = &noopProbe{}
		e.Probes().Attach(p, MessageEventTypes()...)
	}
	// One double-fan round first: every sender broadcasts twice, so every
	// bucket, arena, and scratch capacity is warmed to ~2x the steady
	// occupancy — random per-round occupancy drift can then never cross a
	// growth threshold mid-measurement.
	for from := 0; from < n; from++ {
		nt.Broadcast(from, network.Message{Kind: benchPulseKind, Round: 0})
		nt.Broadcast(from, network.Message{Kind: benchPulseKind, Round: 0})
	}
	e.RunAll(0)
	for round := 0; round < 3; round++ {
		for from := 0; from < n; from++ {
			nt.Broadcast(from, network.Message{Kind: benchPulseKind, Round: 0})
		}
		e.RunAll(0)
	}
	return e, nt, p
}

// zeroAllocRounds is how many measured rounds an allocation guard runs at
// size n: n = 512 is a quarter of a million messages a round, and three
// rounds of it say as much as twenty at n = 32.
func zeroAllocRounds(n int) int {
	if n >= 512 {
		return 3
	}
	return 20
}

// TestPulseRoundZeroAllocs is the guard on the O(n^2) hot path of every
// simulated resynchronization round: every node broadcasts one round
// announcement and the engine drains all deliveries, bare and with a
// no-op probe subscribed to every message event type, and neither may
// allocate once warm. (n = 2048 stays out of tier-1 time; large n is
// covered end to end by TestRunAllocBudgets and TestL3ScaleCompletes.)
func TestPulseRoundZeroAllocs(t *testing.T) {
	for _, n := range []int{8, 32, 128, 512} {
		for _, probed := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/probed=%v", n, probed), func(t *testing.T) {
				e, nt, p := benchPulseNet(n, probed)
				round := 0
				allocs := testing.AllocsPerRun(zeroAllocRounds(n), func() {
					round++
					for from := 0; from < n; from++ {
						nt.Broadcast(from, network.Message{Kind: benchPulseKind, Round: round})
					}
					e.RunAll(0)
				})
				if allocs != 0 {
					t.Fatalf("pulse round allocates %v per round", allocs)
				}
				if probed && p.events == 0 {
					t.Fatal("probe saw no events")
				}
			})
		}
	}
}

// benchShardKick turns a kick event into a round announcement from the
// sender it names. The fixture injects one kick per node per round with
// an explicit key on the sender's lane (Cause = At = the round instant,
// which no engine-assigned key can collide with, since real deliveries
// always have At > Cause); rebinding the exec lane before Broadcast makes
// the fan-out consume the sender's own lane sequence, exactly as node
// code does.
type benchShardKick struct {
	eng *sim.Engine
	nt  *network.Net
}

func (k *benchShardKick) Dispatch(_ sim.Time, m sim.Message) {
	k.eng.SetExecLane(m.From)
	k.nt.Broadcast(int(m.From), network.Message{Kind: benchPulseKind, Round: int(m.Round)})
}

// shardedPulseFixture is benchPulseNet for the conservative parallel
// engine: n nodes striped over k shard engines with persistent parked
// workers, a kick dispatcher per shard, and the Uniform LAN policy whose
// 2ms floor is the lookahead.
type shardedPulseFixture struct {
	coord *sim.Shards
	engs  []*sim.Engine
	tgt   []int
	owner []int32
	n     int
	round int
}

func benchPulseNetSharded(n, k int) *shardedPulseFixture {
	coord := sim.NewShards(1, k, 0.002)
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(i * k / n)
	}
	nets := network.NewSharded(coord, n, network.Uniform{Min: 0.002, Max: 0.01}, nil, owner)
	for _, nt := range nets {
		for i := 0; i < n; i++ {
			nt.Register(i, func(node.ID, network.Message) {})
		}
	}
	f := &shardedPulseFixture{coord: coord, owner: owner, n: n}
	for i := 0; i < k; i++ {
		eng := coord.Shard(i)
		f.engs = append(f.engs, eng)
		f.tgt = append(f.tgt, eng.RegisterDispatcher(&benchShardKick{eng: eng, nt: nets[i]}))
	}
	// Same warm-up shape as benchPulseNet: one double-fan round, then a
	// few steady rounds, so buckets, mailboxes, and merge scratch reach
	// their high-water capacity before measurement.
	f.kickRound(2)
	for i := 0; i < 3; i++ {
		f.kickRound(1)
	}
	return f
}

// kickRound schedules fan broadcasts per node at the next whole-second
// round instant and drains the window machinery to quiescence.
func (f *shardedPulseFixture) kickRound(fan int) {
	f.round++
	at := float64(f.round)
	for from := 0; from < f.n; from++ {
		sh := f.owner[from]
		for c := 0; c < fan; c++ {
			f.engs[sh].ScheduleMsg(
				sim.Key{At: at, Cause: at, Lane: int32(from), Seq: uint32(c)},
				f.tgt[sh],
				sim.Message{From: int32(from), Round: int32(f.round)},
			)
		}
	}
	f.coord.Drain()
}

// TestShardedPulseRoundZeroAllocs is the guard on the sharded hot path:
// a full pulse round — kicks, fan-out, cross-shard exchange, window
// barriers — must not allocate once warm at any shard count. shards=1
// runs the identical machinery with no remote traffic. n = 512 is the
// regime the guarantee is about: every ladder bucket fills whole pooled
// chunks. In between (n = 128 at 4 shards, n = 192 at 8) a bucket holds
// a dozen events in an array of its own, occupancy drifts from round to
// round, and a round grows one to six such arrays — see ROADMAP item 5.
func TestShardedPulseRoundZeroAllocs(t *testing.T) {
	for _, n := range []int{32, 512} {
		for _, k := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("n=%d/shards=%d", n, k), func(t *testing.T) {
				f := benchPulseNetSharded(n, k)
				defer f.coord.Close()
				allocs := testing.AllocsPerRun(zeroAllocRounds(n), func() { f.kickRound(1) })
				if allocs != 0 {
					t.Fatalf("sharded pulse round allocates %v per round", allocs)
				}
			})
		}
	}
}
