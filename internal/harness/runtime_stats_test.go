package harness

import (
	"reflect"
	"slices"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/sig"
)

// TestRuntimeCountersShowTheSharing reads the memory design off
// Result.Runtime instead of a profile. On the signed specs every accepted
// transmission is one reference or, addressed to a silent node, one deaf
// count, and the slots are one per broadcast: 13 references a slot on the
// mesh, where 12 of 25 recipients are silent, 9 on ring:8 (eight neighbours
// and the sender itself — a slot cannot be shared further than the degree).
// On the unsigned spec scalar envelopes ride their events and the arena is
// never touched, nor is the signature memo. Whatever the shard count, the
// references and deaf counts are the serial run's, and so are the
// verifications asked for; only mailbox copies add slots, and only what
// each shard's memo has to compute for itself adds verifications computed:
// over nine in ten are answered from memory on the mesh, seven in ten on the
// ring. At two shards the mesh's silent nodes are shard 1's only nodes, so
// every cross-shard copy is a deaf count and none is a mailbox copy.
func TestRuntimeCountersShowTheSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	for _, tc := range []struct {
		name     string
		spec     Spec
		minShare float64
		maxComp  float64 // verifications computed, as a share of those asked
		mailbox  []int   // shard counts at which cross-shard copies reach a listener
	}{
		{"ring2048-auth", ring2048AuthSpec, 8.5, 0.30, []int{2, 3, 8}},
		{"mesh25-auth", mesh25AuthSpec, 12, 0.09, []int{3, 8}},
	} {
		serial := tc.spec
		serial.Shards = 1
		res := mustRun(t, serial)
		a := res.Runtime.Arena
		t.Logf("%s: %d slots (high-water %d), %d references, %.1f a slot, %d deaf", tc.name, a.Slots, a.SlotsHigh, a.Refs, float64(a.Refs)/float64(a.Slots), a.Deaf)
		if a.Refs+a.Deaf != res.TotalMsgs-res.Dropped {
			t.Errorf("%s: %d references + %d deaf, %d transmissions accepted", tc.name, a.Refs, a.Deaf, res.TotalMsgs-res.Dropped)
		}
		if wantDeaf := tc.spec.FaultyCount > 0; (a.Deaf > 0) != wantDeaf {
			t.Errorf("%s: %d deliveries counted deaf with %d silent nodes", tc.name, a.Deaf, tc.spec.FaultyCount)
		}
		if float64(a.Refs) < tc.minShare*float64(a.Slots) {
			t.Errorf("%s: %d references over %d slots, want at least %.1f a slot", tc.name, a.Refs, a.Slots, tc.minShare)
		}
		if a.Mailbox != 0 {
			t.Errorf("%s: serial run parked %d mailbox copies", tc.name, a.Mailbox)
		}
		g := res.Runtime.Sig
		t.Logf("%s: %d verifications asked, %d computed, %d rejected", tc.name, g.Asked, g.Computed, g.Rejected)
		if g.Asked == 0 || float64(g.Computed) > tc.maxComp*float64(g.Asked) || g.Rejected != 0 {
			t.Errorf("%s: sig counters %+v, want at most %.2f of the verifications computed and none rejected", tc.name, g, tc.maxComp)
		}
		for _, k := range []int{2, 3, 8} {
			sharded := tc.spec
			sharded.Shards = k
			rt := mustRun(t, sharded).Runtime
			if rt.Sig.Asked != g.Asked || rt.Sig.Computed < g.Computed || rt.Sig.Computed > uint64(k)*g.Computed {
				t.Errorf("%s shards=%d: sig counters %+v, serial run %+v", tc.name, k, rt.Sig, g)
			}
			b := rt.Arena
			if b.Refs != a.Refs || b.Deaf != a.Deaf {
				t.Errorf("%s shards=%d: %d references + %d deaf, serial run %d + %d", tc.name, k, b.Refs, b.Deaf, a.Refs, a.Deaf)
			}
			if (b.Mailbox > 0) != slices.Contains(tc.mailbox, k) || b.Slots > a.Slots+b.Mailbox {
				t.Errorf("%s shards=%d: %d slots for %d mailbox copies, serial run took %d", tc.name, k, b.Slots, b.Mailbox, a.Slots)
			}
		}
	}
	rt := mustRun(t, mesh256PrimSpec).Runtime
	if a := rt.Arena; a.Slots != 0 || a.Refs != 0 || a.SlotsHigh != 0 {
		t.Errorf("mesh256-prim touched the payload arena: %+v", a)
	}
	if rt.Sig != (sig.MemoStats{}) {
		t.Errorf("mesh256-prim verified signatures: %+v", rt.Sig)
	}
}

// TestLadderStopsGrowingAfterTheFirstRound: the queue's chunks belong to one
// pool, so rounds after the first are served from what the first one left.
// The only growth that copies is a bucket's own first array doubling toward
// one chunk, at most five times per bucket index in a run; it must not
// come back every round.
func TestLadderStopsGrowingAfterTheFirstRound(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	const laterCopies = 128 // measured: 39, 77 and 10 over rounds 2-6
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"ring2048-auth", ring2048AuthSpec}, {"mesh256-prim", mesh256PrimSpec}, {"mesh25-auth", mesh25AuthSpec},
	} {
		first, full := tc.spec, tc.spec
		first.Shards, full.Shards = 1, 1
		first.Horizon, full.Horizon = 1.5, 6
		l1, l6 := mustRun(t, first).Runtime.Ladder, mustRun(t, full).Runtime.Ladder
		t.Logf("%s: after round 1 %+v", tc.name, l1)
		t.Logf("%s: after round 6 %+v", tc.name, l6)
		if later := l6.GrowCopies - l1.GrowCopies; later > laterCopies {
			t.Errorf("%s: %d grow-copies after the first round (%d in it), want at most %d", tc.name, later, l1.GrowCopies, laterCopies)
		}
		if l6.Chunks > 2*l1.Chunks {
			t.Errorf("%s: chunk pool grew from %d to %d after the first round", tc.name, l1.Chunks, l6.Chunks)
		}
		if tc.name != "mesh25-auth" && l6.Chunks == 0 {
			t.Errorf("%s: a large run never drew a chunk", tc.name)
		}
	}
}

// TestLadderShapeWithTimersOnIt pins what carrying timers on the event ladder
// may cost the queue's shape, at seed 1 and serially. A first attempt, with
// the window anchored and the width re-tuned over timers as well, re-anchored
// four times a round and took mesh256-prim from 5.7 to 12.6 MB a run with
// 1 507 grow-copies. Before timers rode the ladder the three specs took
// chunks / grow-copies / spills of 0/59/0, 341/661/69 and 199/554/98 and
// never re-anchored. Grow-copies stay within those figures. Chunks may
// exceed them, as the queued timer entries a heap of *Event used to hold
// now fill chunks: on the ring two per correct node (a live round timer
// and a cancelled one awaiting its instant), 32 chunks; on mesh256-prim
// the burst peak holds its 171 timers in two far chunks, and its buckets
// split differently, as the old queue was mid-spill there. Spills may
// exceed them by one on the ring, whose first round spills a bucket the
// old queue sealed ahead of the clock and then fed 8 713 shifted
// insertions (none now).
// Re-anchors stay within five a round: the 256 ms window runs out at most
// four times in a 1 s period, and the round's first message re-anchors once.
func TestLadderShapeWithTimersOnIt(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	for _, tc := range []struct {
		name                   string
		spec                   Spec
		chunks, copies, spills uint64
	}{
		{"mesh25-auth", mesh25AuthSpec, 0, 59, 0},         // measured 0 / 29 / 0
		{"mesh256-prim", mesh256PrimSpec, 352, 661, 69},   // measured 237 / 540 / 68
		{"ring2048-auth", ring2048AuthSpec, 232, 554, 99}, // measured 230 / 531 / 99
	} {
		serial := tc.spec
		serial.Shards = 1
		l := mustRun(t, serial).Runtime.Ladder
		t.Logf("%s: %+v", tc.name, l)
		if l.Chunks > tc.chunks || l.GrowCopies > tc.copies || l.Spills > tc.spills {
			t.Errorf("%s: chunks / grow-copies / spills %d / %d / %d, want at most %d / %d / %d",
				tc.name, l.Chunks, l.GrowCopies, l.Spills, tc.chunks, tc.copies, tc.spills)
		}
		if rounds := uint64(serial.Horizon / serial.Params.Period); l.Reanchors > 5*rounds {
			t.Errorf("%s: %d re-anchors in %d rounds, want at most 5 a round", tc.name, l.Reanchors, rounds)
		}
		if l.Timers == 0 || l.Tombstones == 0 || l.Tombstones > l.Timers {
			t.Errorf("%s: %d timers armed, %d tombstones discarded", tc.name, l.Timers, l.Tombstones)
		}
	}
}

// TestRecycledChunksCarryNothing: a closed run hands its queue's chunks to
// the next run in the process, those still holding the events its horizon
// cut off included, and they must carry nothing into it. A campaign cell, a
// ring:8 run at two shards, a mesh256-prim-shaped run that leaves its
// ready copies queued, the ring run again and the cell again: each repeat
// must reproduce its first run's Result and every ladder counter but
// Recycled, and the second ring run must draw recycled chunks — on any
// number of processors and under the race detector, since the recycle
// point is a plain stack that gives back what was put.
func TestRecycledChunksCarryNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	ring := Spec{
		Algo: AlgoAuth, Params: lanParams(256, 3, bounds.Auth),
		Attack: AttackNone, Topology: "ring:8", Horizon: 3, Seed: 2, Shards: 2,
	}
	mesh := mesh256PrimSpec
	mesh.Horizon, mesh.Shards = 3, 1
	cell := mustRun(t, campaignCellSpec)
	first := mustRun(t, ring)
	if left := mustRun(t, mesh).Runtime.Ladder.Chunks; left == 0 {
		t.Fatalf("the mesh run drew no chunk to leave behind")
	}
	same := func(name string, want, got Result) {
		t.Helper()
		if got.Runtime.Ladder.Recycled, want.Runtime.Ladder.Recycled = 0, 0; !reflect.DeepEqual(want, got) {
			t.Errorf("%s on recycled chunks diverged:\n first  %+v\n repeat %+v", name, want, got)
		}
	}
	again := mustRun(t, ring)
	t.Logf("ring: %+v", again.Runtime.Ladder)
	if again.Runtime.Ladder.Recycled == 0 {
		t.Errorf("the second ring run drew %d chunks, none of them recycled", again.Runtime.Ladder.Chunks)
	}
	same("ring:8 at 2 shards", first, again)
	same("the campaign cell", cell, mustRun(t, campaignCellSpec))
}
