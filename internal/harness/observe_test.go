package harness

import (
	"context"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/probe"
)

func observeTestSpec() Spec {
	p := bounds.Params{
		N: 5, F: 2, Variant: bounds.Auth,
		Rho: 1e-4, DMin: 0.002, DMax: 0.01,
		Period: 1.0, InitialSkew: 0.005,
	}.WithDefaults()
	return Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		Horizon: 8, Seed: 42,
	}
}

// TestProbesDoNotPerturbResults is the determinism half of the probe
// contract: a heavily observed run must produce a Result byte-identical
// to an unobserved one (the golden test pins the unobserved baseline).
func TestProbesDoNotPerturbResults(t *testing.T) {
	spec := observeTestSpec()
	plain, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	events := 0
	observed, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.Attach(probe.Func(func(probe.Event) { events++ }))
	})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("probe saw no events")
	}
	if recordOf(plain) != recordOf(observed) {
		t.Fatalf("probes perturbed the run:\n plain    %+v\n observed %+v",
			recordOf(plain), recordOf(observed))
	}
}

// TestRunObservedEventStream sanity-checks the cross-layer stream: the
// built-in collectors and a user spread collector must agree with the
// Result computed by the harness itself.
func TestRunObservedEventStream(t *testing.T) {
	spec := observeTestSpec()
	msgs := probe.NewMsgStats()
	spread := probe.NewSpreadStats()
	boots := 0
	res, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.AttachCollector(msgs)
		bus.AttachCollector(spread)
		bus.Attach(probe.Func(func(probe.Event) { boots++ }), probe.TypeNodeBoot)
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs.Sent() != res.TotalMsgs {
		t.Fatalf("collector sent %d != Result.TotalMsgs %d", msgs.Sent(), res.TotalMsgs)
	}
	if msgs.Delivered() != res.Delivered {
		t.Fatalf("collector delivered %d != Result.Delivered %d", msgs.Delivered(), res.Delivered)
	}
	if boots != spec.Params.N {
		t.Fatalf("boot events = %d, want %d", boots, spec.Params.N)
	}
	// Spread over all pulses (incl. none here from faulty silent nodes)
	// must cover at least the complete rounds the report counted.
	if spread.Rounds() < res.CompleteRounds {
		t.Fatalf("spread collector saw %d rounds < %d complete", spread.Rounds(), res.CompleteRounds)
	}
}

// TestRunObservedSkewQuantiles: the new Result percentiles must be
// internally consistent and bounded by MaxSkew.
func TestRunObservedSkewQuantiles(t *testing.T) {
	res, err := RunContext(context.Background(), observeTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.SkewP50 <= 0 || res.SkewP95 < res.SkewP50 || res.SkewP99 < res.SkewP95 {
		t.Fatalf("quantiles disordered: p50=%v p95=%v p99=%v", res.SkewP50, res.SkewP95, res.SkewP99)
	}
	if res.SkewP99 > res.MaxSkew {
		t.Fatalf("p99 %v > max %v", res.SkewP99, res.MaxSkew)
	}
}

// TestPartitionMarkerEvents: scheduled partition windows surface as cut
// and heal marker events at the right instants.
func TestPartitionMarkerEvents(t *testing.T) {
	spec := observeTestSpec()
	spec.FaultyCount = 0
	spec.Attack = AttackNone
	spec.Horizon = 12
	spec.Partitions = []Partition{{At: 3, Heal: 6, LeftSize: 2}, {At: 9, Heal: 0, LeftSize: 1}}
	var marks []probe.Event
	_, err := RunObserved(context.Background(), spec, func(_ Spec, bus *probe.Bus) {
		bus.Attach(probe.Func(func(ev probe.Event) {
			marks = append(marks, ev)
		}), probe.TypePartitionCut, probe.TypePartitionHeal)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(marks) != 3 {
		t.Fatalf("marker events = %+v, want cut@3, heal@6, cut@9", marks)
	}
	if marks[0].Type != probe.TypePartitionCut || marks[0].T != 3 || marks[0].To != 2 {
		t.Fatalf("cut marker = %+v", marks[0])
	}
	if marks[1].Type != probe.TypePartitionHeal || marks[1].T != 6 || marks[1].To != 2 {
		t.Fatalf("heal marker = %+v", marks[1])
	}
	if marks[2].Type != probe.TypePartitionCut || marks[2].T != 9 || marks[2].To != 1 {
		t.Fatalf("unhealed cut marker = %+v", marks[2])
	}
}

// TestScenarioErrorsSurface: an experiment hitting a malformed spec must
// return an error, not panic (the batch path used to panic), through
// either entry it runs specs by.
func TestScenarioErrorsSurface(t *testing.T) {
	bad := Spec{Algo: "no-such-algo", Params: observeTestSpec().Params}
	if _, err := RunBatch(context.Background(), []Spec{bad}, 0, nil); err == nil {
		t.Fatal("RunBatch swallowed a malformed spec")
	}
	if _, _, err := Boot(bad); err == nil {
		t.Fatal("Boot swallowed a malformed spec")
	}
}
