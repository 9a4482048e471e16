package harness

import (
	"fmt"

	"optsync/internal/adversary"
	"optsync/internal/baseline"
	"optsync/internal/core"
	"optsync/internal/node"
)

// Built-in registrations: the paper's two algorithms, the two prior-art
// baselines, and the seven attack behaviours. Everything the harness once
// hard-wired through switch statements now goes through the same registry
// that external packages extend with RegisterProtocol / RegisterAttack.

func init() {
	RegisterProtocol(AlgoAuth, func(spec Spec) (node.Protocol, error) {
		return core.NewAuth(coreConfig(spec)), nil
	}, WithEnvelope(stEnvelope))

	RegisterProtocol(AlgoPrim, func(spec Spec) (node.Protocol, error) {
		return core.NewPrimitive(coreConfig(spec)), nil
	}, WithEnvelope(stEnvelope))

	RegisterProtocol(AlgoCNV, func(spec Spec) (node.Protocol, error) {
		return baseline.NewCNV(baselineConfig(spec), spec.CNVDelta), nil
	})

	RegisterProtocol(AlgoFTM, func(spec Spec) (node.Protocol, error) {
		return baseline.NewFTM(baselineConfig(spec)), nil
	})

	// AttackNone is only registered for name validation: withDefaults
	// forces FaultyCount to 0, so the builder never actually runs on a
	// node. Falling back to correct behaviour keeps it harmless anyway.
	RegisterAttack(AttackNone, func(spec Spec, _ AttackEnv) (node.Protocol, error) {
		return NewProtocol(spec)
	})

	RegisterAttack(AttackSilent, func(Spec, AttackEnv) (node.Protocol, error) {
		return adversary.Silent{}, nil
	})

	RegisterAttack(AttackCrashMid, func(spec Spec, _ AttackEnv) (node.Protocol, error) {
		inner, err := NewProtocol(spec)
		if err != nil {
			return nil, err
		}
		return &adversary.CrashAt{Inner: inner, At: spec.Horizon / 2}, nil
	})

	RegisterAttack(AttackRush, func(spec Spec, env AttackEnv) (node.Protocol, error) {
		if spec.Algo == AlgoPrim {
			return &adversary.PrimRush{Interval: spec.RushInterval, Rounds: env.RushRounds}, nil
		}
		return &adversary.AuthRush{
			Coalition: env.Coalition,
			Leader:    env.Leader,
			Interval:  spec.RushInterval,
			Rounds:    env.RushRounds,
		}, nil
	})

	RegisterAttack(AttackBias, func(spec Spec, _ AttackEnv) (node.Protocol, error) {
		proto, err := NewProtocol(spec)
		if err != nil {
			return nil, err
		}
		inner, ok := proto.(*baseline.Protocol)
		if !ok {
			return nil, fmt.Errorf("harness: bias attack targets baselines, not %q", spec.Algo)
		}
		return &adversary.BiasedReporter{Inner: inner, Bias: spec.Bias}, nil
	})

	RegisterAttack(AttackEquivocate, func(spec Spec, _ AttackEnv) (node.Protocol, error) {
		p := spec.Params
		return &adversary.Equivocator{
			Cfg:     core.ConfigFromBounds(p),
			TargetA: 0, TargetB: min(1, p.N-1), // a one-node cluster has no node 1
			Rounds: int(spec.Horizon/p.Period) + 1,
		}, nil
	})

	RegisterAttack(AttackSelective, func(spec Spec, _ AttackEnv) (node.Protocol, error) {
		if spec.Algo != AlgoAuth {
			return nil, fmt.Errorf("harness: selective attack targets the auth algorithm, not %q", spec.Algo)
		}
		p := spec.Params
		targets := make(map[node.ID]bool)
		correct := p.N - spec.FaultyCount
		for i := 0; i < correct/2; i++ {
			targets[i] = true
		}
		return &adversary.SelectiveSigner{
			Cfg:     core.ConfigFromBounds(p),
			Targets: targets,
			Rounds:  int(spec.Horizon/p.Period) + 1,
			Lead:    p.Period / 4,
		}, nil
	})
}

func coreConfig(spec Spec) core.Config {
	cfg := core.ConfigFromBounds(spec.Params)
	cfg.ColdStart = spec.ColdStart
	cfg.DisableRelay = spec.DisableRelay
	return cfg
}

func baselineConfig(spec Spec) baseline.Config {
	p := spec.Params
	return baseline.Config{
		Period: p.Period,
		Window: spec.Window,
		DMin:   p.DMin, DMax: p.DMax,
		F: p.F,
	}
}

// stEnvelope is the accuracy envelope of the two Srikanth-Toueg
// algorithms: the hardware rate interval widened by the provably
// unavoidable alpha/P and (beta+dmax)/P correction terms.
func stEnvelope(spec Spec, span float64) (lo, hi float64) {
	return spec.Params.EnvelopeRateBoundsOver(span)
}
