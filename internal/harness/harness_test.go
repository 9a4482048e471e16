package harness

import (
	"strings"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core/bounds"
)

func quickParams(n int, v bounds.Variant) bounds.Params {
	return bounds.Params{
		N: n, F: v.MaxFaults(n), Variant: v,
		Rho:  clock.Rho(1e-4),
		DMin: 0.002, DMax: 0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
}

func TestRunAuthWithinBounds(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	res := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		Horizon: 15, Seed: 1,
	})
	if !res.WithinSkew {
		t.Fatalf("skew %v > bound %v", res.MaxSkew, res.SkewBound)
	}
	if res.MaxSpread > res.SpreadBound+1e-9 {
		t.Fatalf("spread %v > beta %v", res.MaxSpread, res.SpreadBound)
	}
	if res.CompleteRounds < 10 {
		t.Fatalf("only %d complete rounds", res.CompleteRounds)
	}
	if !res.EnvelopeOK || !res.WithinEnvelope {
		t.Fatalf("envelope [%v, %v] outside [%v, %v]",
			res.EnvLo, res.EnvHi, res.EnvBoundLo, res.EnvBoundHi)
	}
	if res.MinPeriod < res.PminBound-1e-9 || res.MaxPeriod > res.PmaxBound+1e-9 {
		t.Fatalf("periods [%v, %v] outside [%v, %v]",
			res.MinPeriod, res.MaxPeriod, res.PminBound, res.PmaxBound)
	}
	if res.TotalMsgs == 0 || res.MsgsPerRound == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestRunPrimitiveWithinBounds(t *testing.T) {
	p := quickParams(7, bounds.Primitive)
	res := Run(Spec{
		Algo: AlgoPrim, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		Horizon: 15, Seed: 2,
	})
	if !res.WithinSkew {
		t.Fatalf("skew %v > bound %v", res.MaxSkew, res.SkewBound)
	}
	if res.MaxSpread > res.SpreadBound+1e-9 {
		t.Fatalf("spread %v > beta %v", res.MaxSpread, res.SpreadBound)
	}
}

func TestRunBaselinesConverge(t *testing.T) {
	for _, algo := range []Algorithm{AlgoCNV, AlgoFTM} {
		p := quickParams(7, bounds.Primitive)
		res := Run(Spec{
			Algo: algo, Params: p,
			FaultyCount: p.F, Attack: AttackSilent,
			Horizon: 20, Seed: 3,
		})
		// Baselines have different constants; assert plausibility, not the
		// ST bound: skew must stay far below the period.
		if res.MaxSkew > p.Period/10 {
			t.Fatalf("%s skew %v did not converge", algo, res.MaxSkew)
		}
		if res.CompleteRounds < 10 {
			t.Fatalf("%s only %d rounds", algo, res.CompleteRounds)
		}
	}
}

func TestRushAttackBreaksBeyondResilience(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	within := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackRush,
		RushInterval: p.Period / 5, Horizon: 20, Seed: 4,
	})
	if !within.WithinEnvelope {
		t.Fatalf("rush within resilience broke accuracy: [%v, %v]", within.EnvLo, within.EnvHi)
	}
	beyond := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F + 1, Attack: AttackRush,
		RushInterval: p.Period / 5, Horizon: 20, Seed: 4,
	})
	// With f+1 colluders, rounds fire every P/5: the rate must blow up.
	if beyond.WithinEnvelope {
		t.Fatalf("rush beyond resilience did NOT break accuracy: [%v, %v] within [%v, %v]",
			beyond.EnvLo, beyond.EnvHi, beyond.EnvBoundLo, beyond.EnvBoundHi)
	}
	if beyond.MinPeriod >= beyond.PminBound {
		t.Fatalf("rush beyond resilience did not violate Pmin: %v >= %v",
			beyond.MinPeriod, beyond.PminBound)
	}
}

func TestPrimRushBreaksBeyondResilience(t *testing.T) {
	p := quickParams(7, bounds.Primitive)
	beyond := Run(Spec{
		Algo: AlgoPrim, Params: p,
		FaultyCount: p.F + 1, Attack: AttackRush,
		RushInterval: p.Period / 5, Horizon: 20, Seed: 5,
	})
	if beyond.WithinEnvelope {
		t.Fatalf("primitive rush beyond resilience did not break accuracy: [%v, %v]",
			beyond.EnvLo, beyond.EnvHi)
	}
}

func TestBiasAttackBreaksCNVButNotFTM(t *testing.T) {
	p := quickParams(7, bounds.Primitive)
	bias := 3 * p.Dmax()
	cnv := Run(Spec{
		Algo: AlgoCNV, Params: p,
		FaultyCount: p.F, Attack: AttackBias, Bias: bias,
		Horizon: 120, Seed: 6,
	})
	if cnv.EnvHi <= cnv.EnvBoundHi {
		t.Fatalf("bias attack failed to degrade CNV accuracy: hi=%v bound=%v",
			cnv.EnvHi, cnv.EnvBoundHi)
	}
	ftm := Run(Spec{
		Algo: AlgoFTM, Params: p,
		FaultyCount: p.F, Attack: AttackBias, Bias: bias,
		Horizon: 120, Seed: 6,
	})
	// FTM's midpoint is bounded by correct extremes: rate stays near 1.
	if ftm.EnvHi > cnv.EnvHi {
		t.Fatalf("FTM degraded more than CNV under the same attack: %v > %v",
			ftm.EnvHi, cnv.EnvHi)
	}
}

func TestEquivocationHarmless(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	res := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackEquivocate,
		Horizon: 20, Seed: 7,
	})
	if !res.WithinSkew {
		t.Fatalf("equivocation broke agreement: %v > %v", res.MaxSkew, res.SkewBound)
	}
}

func TestCrashMidAttack(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	res := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackCrashMid,
		Horizon: 20, Seed: 8,
	})
	if !res.WithinSkew {
		t.Fatalf("mid-run crash broke agreement: %v > %v", res.MaxSkew, res.SkewBound)
	}
	if res.CompleteRounds < 10 {
		t.Fatalf("liveness lost after crashes: %d rounds", res.CompleteRounds)
	}
}

func TestSpreadDelaysStillWithinBounds(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	res := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		SpreadDelays: true, Horizon: 15, Seed: 9,
	})
	if !res.WithinSkew {
		t.Fatalf("adversarial-but-legal delays broke the bound: %v > %v",
			res.MaxSkew, res.SkewBound)
	}
}

func TestKeepSeries(t *testing.T) {
	p := quickParams(3, bounds.Auth)
	res := Run(Spec{
		Algo: AlgoAuth, Params: p, Attack: AttackNone,
		Horizon: 5, KeepSeries: true, Seed: 10,
	})
	if len(res.Series) == 0 {
		t.Fatal("series not kept")
	}
	res2 := Run(Spec{
		Algo: AlgoAuth, Params: p, Attack: AttackNone,
		Horizon: 5, Seed: 10,
	})
	if len(res2.Series) != 0 {
		t.Fatal("series kept without KeepSeries")
	}
}

func TestRunDeterminism(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	spec := Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		Horizon: 10, Seed: 11,
	}
	a, b := Run(spec), Run(spec)
	if a.MaxSkew != b.MaxSkew || a.PulseCount != b.PulseCount || a.TotalMsgs != b.TotalMsgs {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestUnknownAlgoAndAttackPanic(t *testing.T) {
	p := quickParams(3, bounds.Auth)
	for name, spec := range map[string]Spec{
		"algo":              {Algo: "nope", Params: p, Attack: AttackNone, Seed: 1},
		"attack":            {Algo: AlgoAuth, Params: p, FaultyCount: 1, Attack: "nope", Seed: 1},
		"bias on auth":      {Algo: AlgoAuth, Params: p, FaultyCount: 1, Attack: AttackBias, Seed: 1},
		"selective on prim": {Algo: AlgoPrim, Params: quickParams(4, bounds.Primitive), FaultyCount: 1, Attack: AttackSelective, Seed: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			Run(spec)
		}()
	}
}

func TestSlewedRunStaysWithinBounds(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	res := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		SlewRate: 0.05, Horizon: 20, Seed: 12,
	})
	if !res.WithinSkew {
		t.Fatalf("slewed run skew %v > bound %v", res.MaxSkew, res.SkewBound)
	}
	if res.CompleteRounds < 15 {
		t.Fatalf("slewed run lost liveness: %d rounds", res.CompleteRounds)
	}
}

func TestColdStartRunConverges(t *testing.T) {
	p := quickParams(5, bounds.Auth)
	res := Run(Spec{
		Algo: AlgoAuth, Params: p,
		FaultyCount: p.F, Attack: AttackSilent,
		ColdStart: true, Horizon: 10, Seed: 13,
	})
	if res.CompleteRounds < 5 {
		t.Fatalf("cold-start run made only %d rounds", res.CompleteRounds)
	}
	// Initial skew is ~100 periods, so WithinSkew (which uses the steady
	// bound incl. start) is judged over the whole run and will fail; the
	// meaningful check is pulse-spread, which must be within beta once
	// running.
	if res.MaxSpread > res.SpreadBound+1e-9 {
		t.Fatalf("cold-start spread %v > beta %v", res.MaxSpread, res.SpreadBound)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "a", "bb")
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	tb.AddNote("note %d", 7)
	out := tb.Render()
	for _, want := range []string{"== demo ==", "a    bb", "333  4", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,bb\n1,2\n") {
		t.Fatalf("csv = %q", csv)
	}
}

func TestTableRowMismatchPanics(t *testing.T) {
	tb := NewTable("demo", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row did not panic")
		}
	}()
	tb.AddRow("only one")
}

func TestFormatHelpers(t *testing.T) {
	if F(0.125) != "0.125" {
		t.Fatalf("F = %q", F(0.125))
	}
	if FmtBool(true) != "ok" || FmtBool(false) != "VIOLATED" {
		t.Fatal("FmtBool wrong")
	}
}
