// Package experiment is the reproduction suite: one entry per table or
// figure, each regenerating its tables from simulations.
//
// The experiments that are grids over spec fields (T1, T2, T4, T5, T7,
// T8, F2, F3, F6, W1, W3) are campaign.Campaign values settled by
// campaign.Run, so their cells are content-addressed and resume from a
// store like any other campaign. The rest run spec lists through the
// harness (T3, A1, A2, F1, F4, W2, L1–L3: not grids, or they need
// KeepSeries, which campaign cells clear) or drive a booted cluster
// directly (T6, F5, A3, F7, and A2's backward-jump count).
package experiment

import (
	"context"

	"optsync/internal/campaign"
	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/harness"
)

// Experiment is one table or figure of the suite. Run settles its runs
// with opts — the worker count, and for campaign experiments the store —
// and renders its tables; malformed specs and cancellation surface as
// errors, never panics.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, opts campaign.Options) ([]*harness.Table, error)
}

// All returns the suite in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Agreement, authenticated algorithm (skew <= Dmax)", t1.run},
		{"T2", "Agreement, primitive-based algorithm (skew <= Dmax)", t2.run},
		{"T3", "Optimal accuracy vs baselines under attack", t3Accuracy},
		{"T4", "Resilience boundary, authenticated (f = ceil(n/2)-1 vs +1)", t4.run},
		{"T5", "Resilience boundary, primitive (f = floor((n-1)/3) vs +1)", t5.run},
		{"T6", "Broadcast primitive: correctness/unforgeability/relay", t6Primitive},
		{"T7", "Message complexity per round (O(n^2))", t7Messages},
		{"T8", "Large-cluster scale-out (n up to 101)", t8Scale},
		{"F1", "Skew-vs-time sawtooth trace", f1Trace},
		{"F2", "Skew vs number of faults (n=13, authenticated)", f2SkewVsFaults},
		{"F3", "Skew vs max delay: ST Theta(d) vs FTM Theta(u+rho*d)", f3SkewVsDelay},
		{"F4", "Reintegration of a late-joining process", f4Reintegration},
		{"F5", "Per-node accuracy envelope fits", f5Envelope},
		{"F6", "Skew vs resynchronization period P", f6SkewVsPeriod},
		{"F7", "Cold-start initialization (extension)", f7ColdStart},
		{"A1", "Ablation: relay step under selective signing", a1RelayAblation},
		{"A2", "Ablation: adjustment constant alpha", a2AlphaAblation},
		{"A3", "Extension: amortized (slewed) adjustment", a3SlewAblation},
		{"W1", "Topology: skew vs WAN region count (extension)", w1.run},
		{"W2", "Topology: convergence across a healed partition (extension)", w2PartitionHeal},
		{"W3", "Topology: degradation on sparse graphs (extension)", w3.run},
		{"L1", "Scaling tier: n=2048 on sparse rings (extension)", l1.run},
		{"L2", "Scaling tier: n=4096 on sparse rings (extension)", l2.run},
		{"L3", "Scaling tier: n=65536 sparse ring, sharded engine (extension)", l3.run},
	}
}

// Find returns the experiment with the given id, or false.
func Find(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// operatingPoint is the reference deployment used across experiments:
// quartz-grade drift (1e-4), LAN-grade delays (2-10 ms), 1 s period, and
// the paper's alpha for that point. N and F are left to the caller.
func operatingPoint(variant bounds.Variant) bounds.Params {
	return bounds.Params{
		Variant:     variant,
		Rho:         clock.Rho(1e-4),
		DMin:        0.002,
		DMax:        0.01,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
}

// defaultParams is the operating point for n processes at the variant's
// optimal resilience.
func defaultParams(n int, variant bounds.Variant) bounds.Params {
	p := operatingPoint(variant)
	p.N, p.F = n, variant.MaxFaults(n)
	return p
}

// sparseParams is the operating point with the resilience dialed down to
// f=3: a process only assembles evidence from its topological
// neighbourhood, so partial connectivity demands f+1 <= min neighbourhood
// size — the resilience/connectivity trade-off sparse deployments impose
// (W1's wan:8 keeps neighbourhoods of 5 and ring:4 of 4, both >= f+1 = 4;
// ring:2 deliberately stays below it).
func sparseParams(n int) bounds.Params {
	p := operatingPoint(bounds.Auth)
	p.N, p.F = n, 3
	return p
}

// variantOf is the resilience regime an algorithm runs under: f < n/2
// for the authenticated ST algorithm, f < n/3 for the primitive-based one
// and for every averaging baseline.
func variantOf(algo harness.Algorithm) bounds.Variant {
	if algo == harness.AlgoAuth {
		return bounds.Auth
	}
	return bounds.Primitive
}

// atMaxFaults sets a cell's fault bound to its variant's optimum for the
// cell's n and makes that many nodes faulty: the Finish step of every
// sweep that varies n.
func atMaxFaults(s *harness.Spec) {
	s.Params.F = s.Params.Variant.MaxFaults(s.Params.N)
	s.FaultyCount = s.Params.F
}
