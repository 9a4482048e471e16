package harness

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/node"
	"optsync/internal/probe"
	"optsync/internal/tracelake"
)

// runTraced runs a spec and returns both the Result and the trace lake of
// every event the run emitted. The lake is the strictest equality witness
// available: its seq column pins the order of the stream and its value
// columns the timing and payload of each observable event, not just the
// aggregate report — and its bytes do not depend on GOMAXPROCS or on the
// engine that produced the events.
func runTraced(t *testing.T, spec Spec) (Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := tracelake.NewWriter(&buf)
	res, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.Attach(w)
	})
	if err != nil {
		t.Fatalf("%s: %v", spec.Name, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("%s: flushing trace: %v", spec.Name, err)
	}
	return res, buf.Bytes()
}

// shardPropertySpecs spans the spec dimensions that stress distinct
// sharded-engine mechanisms: topologies exercise the remote-routing and
// neighbor-list broadcast paths, attacks exercise adversary state
// co-location and payload (non-inline) messages, partitions exercise
// global-lane marker events splitting windows, and the delay variants
// exercise different lookahead derivations. The silent and crash-mid specs
// have deaf recipients, whose deliveries an unprobed run counts instead of
// queueing; the last one's silent node boots late, so the deliveries before
// its boot stay queued and are dropped offline.
func shardPropertySpecs() []Spec {
	params := func(n, f int, v bounds.Variant) bounds.Params {
		return bounds.Params{
			N: n, F: f, Variant: v,
			Rho: 1e-4, DMin: 0.002, DMax: 0.01,
			Period: 1.0, InitialSkew: 0.005,
		}.WithDefaults()
	}
	specs := []Spec{
		{Algo: AlgoAuth, Params: params(5, 1, bounds.Auth),
			FaultyCount: 1, Attack: AttackSilent, Seed: 1},
		{Algo: AlgoAuth, Params: params(9, 2, bounds.Auth),
			FaultyCount: 2, Attack: AttackEquivocate, Seed: 2},
		{Algo: AlgoAuth, Params: params(8, 2, bounds.Auth),
			FaultyCount: 2, Attack: AttackSelective, Seed: 3},
		{Algo: AlgoCNV, Params: params(7, 2, bounds.Primitive),
			FaultyCount: 2, Attack: AttackBias, Bias: 0.004, Seed: 4},
		{Algo: AlgoAuth, Params: params(6, 1, bounds.Auth),
			FaultyCount: 1, Attack: AttackCrashMid, Seed: 5, SpreadDelays: true},
		{Algo: AlgoAuth, Params: params(12, 2, bounds.Auth),
			FaultyCount: 2, Attack: AttackSilent, Seed: 6, Topology: "ring:4"},
		{Algo: AlgoPrim, Params: params(9, 2, bounds.Primitive),
			FaultyCount: 0, Attack: AttackNone, Seed: 7, Topology: "wan:3"},
		{Algo: AlgoAuth, Params: params(10, 2, bounds.Auth),
			FaultyCount: 0, Attack: AttackNone, Seed: 8,
			Partitions: []Partition{{At: 2, Heal: 4, LeftSize: 3}, {At: 6, Heal: 0, LeftSize: 2}}},
		{Algo: AlgoAuth, Params: params(8, 2, bounds.Auth),
			FaultyCount: 2, Attack: AttackRush, RushInterval: 0.5, Seed: 9},
		{Algo: AlgoAuth, Params: params(6, 1, bounds.Auth),
			FaultyCount: 0, Attack: AttackNone, Seed: 10, SlewRate: 0.05,
			StartAt: map[int]float64{4: 2.5}},
		{Algo: AlgoAuth, Params: params(5, 1, bounds.Auth),
			FaultyCount: 1, Attack: AttackSilent, Seed: 1,
			StartAt: map[int]float64{4: 2.5}},
	}
	for i := range specs {
		specs[i].Horizon = 8
		specs[i].KeepSeries = true
		specs[i].Name = fmt.Sprintf("prop-%d", i)
	}
	return specs
}

// shardInvariant is the part of a Result that must not depend on the shard
// count: everything but the Spec, which names the count, and Runtime, which
// counts what each shard's arena and queue did.
func shardInvariant(res Result) Result {
	res.Spec, res.Runtime = Spec{}, node.RuntimeStats{}
	return res
}

// TestShardedMatchesSerial is the bit-exactness contract of the parallel
// engine: for every spec in the property grid, shard counts 2 and 8 must
// reproduce the serial engine's Result (including the full skew series
// and pulse log) and its trace lake byte for byte. The lake subscribes to
// message_delivered, so a traced run queues every delivery; an unprobed run
// at 1, 2 and 8 shards, which counts the deliveries to deaf recipients
// instead, must reproduce the traced serial Result too. It runs under -race
// in CI, so it doubles as the data-race witness for the worker pool,
// cross-shard mailboxes, and barrier merges.
func TestShardedMatchesSerial(t *testing.T) {
	for _, spec := range shardPropertySpecs() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			serial := spec
			serial.Shards = 1
			wantRes, wantTrace := runTraced(t, serial)
			if d := wantRes.Runtime.Arena.Deaf; d != 0 {
				t.Errorf("traced serial run counted %d deaf deliveries, want every one queued", d)
			}
			if len(spec.StartAt) > 0 && wantRes.DroppedOffline == 0 {
				t.Errorf("no delivery reached a node before its boot")
			}
			wantRes = shardInvariant(wantRes)
			deaf := spec.FaultyCount > 0 && (spec.Attack == AttackSilent || spec.Attack == AttackCrashMid)
			for _, k := range []int{1, 2, 8} {
				unprobed := spec
				unprobed.Shards = k
				gotRes := mustRun(t, unprobed)
				if d := gotRes.Runtime.Arena.Deaf; (d > 0) != deaf {
					t.Errorf("unprobed shards=%d counted %d deaf deliveries", k, d)
				}
				if gotRes = shardInvariant(gotRes); !reflect.DeepEqual(wantRes, gotRes) {
					t.Errorf("unprobed shards=%d result diverged from traced serial:\n traced   %+v\n unprobed %+v", k, wantRes, gotRes)
				}
			}
			for _, k := range []int{2, 8} {
				sharded := spec
				sharded.Shards = k
				gotRes, gotTrace := runTraced(t, sharded)
				if d := gotRes.Runtime.Arena.Deaf; d != 0 {
					t.Errorf("traced shards=%d run counted %d deaf deliveries", k, d)
				}
				gotRes = shardInvariant(gotRes)
				if !reflect.DeepEqual(wantRes, gotRes) {
					t.Errorf("shards=%d result diverged from serial:\n serial  %+v\n sharded %+v", k, wantRes, gotRes)
				}
				if !bytes.Equal(wantTrace, gotTrace) {
					t.Errorf("shards=%d trace lake diverged from serial: %d bytes vs %d (first diff at %d)",
						k, len(wantTrace), len(gotTrace), firstDiff(wantTrace, gotTrace))
				}
			}
		})
	}
}

// TestLakeRederivesResult: a run's trace lake carries everything its
// Result is made of. Replaying the lake of every property spec, at 1, 2
// and 8 shards, into fresh folds — the pulse fold, the skew and traffic
// collectors, a series and a pulse log — must give back the live Result
// bit for bit, all but Runtime, which no event describes.
func TestLakeRederivesResult(t *testing.T) {
	for _, spec := range shardPropertySpecs() {
		for _, k := range []int{1, 2, 8} {
			spec := spec
			spec.Shards = k
			t.Run(fmt.Sprintf("%s/shards=%d", spec.Name, k), func(t *testing.T) {
				live, data := runTraced(t, spec)
				l, err := tracelake.OpenBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				pulses := newPulseFold(live.Spec.Params.N - live.Spec.FaultyCount)
				skew, msgs, series, pulseLog := probe.NewSkewStats(), probe.NewMsgStats(), probe.NewSeries(), &node.PulseLog{}
				if _, err := l.Replay(tracelake.Query{}, pulses, skew, msgs, series, pulseLog); err != nil {
					t.Fatal(err)
				}
				traffic := make(map[string]uint64)
				for _, s := range msgs.Aggregate() {
					traffic[s.Key] = uint64(s.Value)
				}
				got := measure(live.Spec, pulses, skew, network.Stats{
					Sent: msgs.Sent(), Delivered: msgs.Delivered(), Dropped: traffic["drop_policy"],
					DroppedOffline: traffic["drop_offline"], DroppedLink: traffic["drop_link"],
				})
				got.Series, got.Pulses, got.Runtime = series.Samples, pulseLog.Records, live.Runtime
				if !reflect.DeepEqual(live, got) {
					t.Errorf("the lake re-derived a different result:\n live %+v\n lake %+v", live, got)
				}
			})
		}
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestShardsValidation: negative shard counts are spec errors (not
// panics), zero auto-picks, and counts above N clamp rather than fail.
func TestShardsValidation(t *testing.T) {
	spec := shardPropertySpecs()[0]
	spec.Shards = -1
	if _, err := RunContext(context.Background(), spec); err == nil {
		t.Fatal("Shards=-1 did not error")
	}
	spec.Shards = 0
	if _, err := RunContext(context.Background(), spec); err != nil {
		t.Fatalf("Shards=0 auto-pick failed: %v", err)
	}
	spec.Shards = 64 // N is 5: must clamp, not fail
	if _, err := RunContext(context.Background(), spec); err != nil {
		t.Fatalf("Shards=64 on N=5 failed: %v", err)
	}
}

// TestLateJoinerTrafficDroppedOffline: messages that reach a node before
// it boots are lost at the far end, and the run must say so — the network
// counts them as DroppedOffline and reports message_drop_offline, not
// Delivered / message_delivered. The expected count is taken from the
// probe stream itself (sends to the joiner landing before its boot), the
// counters must balance once nothing is in flight (the horizon falls
// mid-period, long after the last round's copies arrived), and a 2-shard
// run must agree with the serial one.
func TestLateJoinerTrafficDroppedOffline(t *testing.T) {
	const joiner, bootAt = 4, 5.5
	spec := Spec{
		Name: "late-joiner", Algo: AlgoAuth, Params: quickParams(5, bounds.Auth),
		Attack: AttackNone, Seed: 3, Horizon: 10.5,
		StartAt: map[int]float64{joiner: bootAt},
	}
	run := func(shards int) (Result, uint64, uint64) {
		s := spec
		s.Shards = shards
		var preBoot, offlineEvents uint64
		res, err := RunObserved(context.Background(), s, func(_ Spec, bus *probe.Bus) {
			bus.Attach(probe.Func(func(ev probe.Event) {
				switch ev.Type {
				case probe.TypeMessageDropOffline:
					offlineEvents++
				case probe.TypeMessageSent:
					if ev.To == joiner && ev.Value < bootAt { // Value is the delivery instant
						preBoot++
					}
				}
			}), probe.TypeMessageSent, probe.TypeMessageDropOffline)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, preBoot, offlineEvents
	}
	res, preBoot, offlineEvents := run(1)
	if preBoot == 0 {
		t.Fatal("fixture sent nothing to the joiner before its boot")
	}
	if res.DroppedOffline != preBoot || offlineEvents != preBoot {
		t.Errorf("DroppedOffline = %d, message_drop_offline events = %d, want %d (sends landing on the joiner before t=%v)",
			res.DroppedOffline, offlineEvents, preBoot, bootAt)
	}
	if res.TotalMsgs != res.Delivered+res.Dropped+res.DroppedOffline {
		t.Errorf("Sent %d != Delivered %d + Dropped %d + DroppedOffline %d",
			res.TotalMsgs, res.Delivered, res.Dropped, res.DroppedOffline)
	}
	sharded, _, _ := run(2)
	res, sharded = shardInvariant(res), shardInvariant(sharded)
	if !reflect.DeepEqual(res, sharded) {
		t.Errorf("2 shards diverged from serial:\n serial  %+v\n sharded %+v", res, sharded)
	}
}
