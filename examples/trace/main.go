// Trace: observe a run through the composable probe API instead of
// retained series — attach streaming collectors (O(1) memory skew
// quantiles, per-round spreads, traffic counters), record the full typed
// event trace, then replay the trace through fresh collectors and verify
// the aggregates come back bit-identical. This is the workflow behind
// `syncsim -run ... -trace f` + `syncsim trace -in f`, in library form.
//
//	go run ./examples/trace
package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"

	"optsync"
)

func main() {
	params := optsync.Params{
		N: 7, F: 3, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	spec := optsync.Spec{
		Algo: optsync.AlgoAuth, Params: params,
		FaultyCount: params.F, Attack: optsync.AttackSilent,
		Horizon: 20, Seed: 7,
		// A scheduled partition makes cut/heal markers show up in the
		// trace alongside messages, pulses, boots, and skew samples.
		Partitions: []optsync.Partition{{At: 8, Heal: 12, LeftSize: 2}},
	}

	// 1. Observe the run three ways at once: a bounded-memory skew
	//    collector, a traffic collector, and a JSONL trace of every
	//    event — plus an ad-hoc probe counting partition markers.
	skew := optsync.NewSkewCollector()
	msgs := optsync.NewMsgCollector()
	var trace bytes.Buffer
	tw := optsync.NewTraceWriter(&trace)
	marks := 0
	res, err := optsync.Run(context.Background(), spec,
		optsync.WithCollector(skew),
		optsync.WithCollector(msgs),
		optsync.WithTrace(tw),
		optsync.WithProbe(optsync.ProbeFunc(func(optsync.Event) { marks++ }),
			optsync.EventPartitionCut, optsync.EventPartitionHeal),
	)
	if err != nil {
		panic(err)
	}

	fmt.Printf("max skew %.6fs (bound %.6fs), p50 %.6fs, p95 %.6fs — no series retained\n",
		res.MaxSkew, res.SkewBound, skew.P50(), skew.P95())
	fmt.Printf("traffic: %d sent, %d delivered, %d offline drops, %d link drops\n",
		msgs.Sent(), msgs.Delivered(), res.DroppedOffline, res.DroppedLink)
	fmt.Printf("partition markers seen: %d (cut@8s, heal@12s)\n", marks)
	fmt.Printf("trace: %d events in %d bytes (JSON Lines)\n\n", tw.Events(), trace.Len())

	// 2. Replay the trace through fresh collectors: same event stream,
	//    same aggregates, bit for bit.
	skew2, msgs2 := optsync.NewSkewCollector(), optsync.NewMsgCollector()
	n, err := optsync.ReplayTrace(bytes.NewReader(trace.Bytes()), skew2, msgs2)
	if err != nil {
		panic(err)
	}
	same := reflect.DeepEqual(skew.Aggregate(), skew2.Aggregate()) &&
		reflect.DeepEqual(msgs.Aggregate(), msgs2.Aggregate())
	fmt.Printf("replayed %d events: aggregates bit-identical = %v\n", n, same)
	for _, s := range skew2.Aggregate() {
		fmt.Printf("  skew %-10s %.6g\n", s.Key, s.Value)
	}
}
