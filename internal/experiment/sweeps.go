package experiment

import (
	"context"
	"fmt"
	"strings"

	"optsync/internal/campaign"
	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/harness"
)

// The grid experiments. Each is a campaign: a Base spec, axes over
// existing fields, and a Finish step that re-derives what the paper's
// conventions tie to the swept values (the fault bound to n, alpha to
// rho and dmax, the per-cell seed).

// rows settles c and renders one row of t per cell, in cell order.
func rows(ctx context.Context, opts campaign.Options, c campaign.Campaign, t *harness.Table, row func(harness.Result) []string) ([]*harness.Table, error) {
	rep, err := campaign.Run(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	for _, res := range rep.Results {
		t.AddRow(row(res)...)
	}
	return []*harness.Table{t}, nil
}

// agreement is T1 and T2: measured skew and acceptance spread against
// Dmax and beta at the variant's maximum tolerated silent faults, over n,
// rho and dmax, with DMin = dmax/5, initial skew dmax/2 and alpha
// re-derived per cell. Cell seeds are n*nSeed + rho*1e7 + dmax*dmaxSeed.
// T2 holds dmax at the operating point's 10 ms, where dmax/5 and dmax/2
// are the operating point's DMin and initial skew.
type agreement struct {
	id, title, note string
	algo            harness.Algorithm
	ns              []int
	dmaxes          []float64
	nSeed           int
	dmaxSeed        float64
}

var (
	t1 = agreement{
		id: "T1", title: "T1: agreement, authenticated, f = ceil(n/2)-1 silent",
		note: "paper claim: skew <= Dmax = (1+rho)*beta + alpha + drift*(resync window) at optimal resilience",
		algo: harness.AlgoAuth, ns: []int{3, 5, 7, 9, 15, 25}, dmaxes: []float64{0.001, 0.01, 0.05},
		nSeed: 1000, dmaxSeed: 1e4,
	}
	t2 = agreement{
		id: "T2", title: "T2: agreement, primitive-based, f = floor((n-1)/3) silent",
		note: "primitive acceptance spreads over two hops: beta = 2*dmax",
		algo: harness.AlgoPrim, ns: []int{4, 7, 10, 16, 31}, dmaxes: []float64{0.01},
		nSeed: 100,
	}
)

func (a agreement) run(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	t := harness.NewTable(a.title,
		"n", "f", "rho", "dmax_s", "max_skew_s", "Dmax_bound_s", "skew", "max_spread_s", "beta_s", "spread")
	t.AddNote("%s", a.note)
	return rows(ctx, opts, campaign.Campaign{
		Name: a.id,
		Base: harness.Spec{Algo: a.algo, Params: operatingPoint(variantOf(a.algo)), Attack: harness.AttackSilent},
		Axes: []campaign.Axis{
			{Field: "n", Values: campaign.Ints(a.ns...)},
			{Field: "rho", Values: campaign.Floats(1e-6, 1e-4, 1e-3)},
			{Field: "dmax", Values: campaign.Floats(a.dmaxes...)},
		},
		Finish: func(s *harness.Spec) error {
			p := &s.Params
			p.DMin, p.InitialSkew = p.DMax/5, p.DMax/2
			p.Alpha = bounds.DefaultAlpha(p.Rho, p.DMax)
			atMaxFaults(s)
			s.Seed = int64(p.N*a.nSeed) + int64(float64(p.Rho)*1e7) + int64(p.DMax*a.dmaxSeed)
			return nil
		},
	}, t, func(res harness.Result) []string {
		p := res.Spec.Params
		return []string{
			fmt.Sprint(p.N), fmt.Sprint(p.F), harness.F(float64(p.Rho)), harness.F(p.DMax),
			harness.F(res.MaxSkew), harness.F(res.SkewBound), harness.FmtBool(res.WithinSkew),
			harness.F(res.MaxSpread), harness.F(res.SpreadBound),
			harness.FmtBool(res.MaxSpread <= res.SpreadBound+1e-9),
		}
	})
}

// resilience is T4 and T5: the rush attack at the resilience boundary.
// With f_actual at the variant's bound the coalition cannot forge a
// quorum and the run stays within bounds; with one more faulty node it
// fires rounds at its own pace, destroying the period and accuracy
// guarantees. The "faulty" axis sweeps the excess {0, 1} over the bound,
// which Finish adds for the cell's n.
type resilience struct {
	id, title string
	notes     []string
	algo      harness.Algorithm
	ns        []int
}

var (
	t4 = resilience{
		id: "T4", title: "T4: authenticated resilience boundary under rush attack",
		algo: harness.AlgoAuth, ns: []int{3, 5, 7},
		notes: []string{
			"beyond f = ceil(n/2)-1 the coalition alone forges f_cfg+1-signature quorums:",
			"rounds fire at the adversary's pace — periods collapse below Pmin and the clock rate leaves the envelope",
		},
	}
	t5 = resilience{
		id: "T5", title: "T5: primitive resilience boundary under rush attack",
		algo: harness.AlgoPrim, ns: []int{4, 7, 10},
		notes: []string{
			"f_cfg+1 colluding readies trigger the join rule at every correct process,",
			"completing the 2f+1 quorum with no correct clock due",
		},
	}
)

func (r resilience) run(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	t := harness.NewTable(r.title,
		"n", "f_cfg", "f_actual", "min_period_s", "Pmin_bound_s", "period", "env_hi", "env_bound_hi", "accuracy")
	for _, note := range r.notes {
		t.AddNote("%s", note)
	}
	p := operatingPoint(variantOf(r.algo))
	return rows(ctx, opts, campaign.Campaign{
		Name: r.id,
		Base: harness.Spec{
			Algo: r.algo, Params: p, Attack: harness.AttackRush,
			RushInterval: p.Period / 5, Horizon: 40 * p.Period,
		},
		Axes: []campaign.Axis{
			{Field: "n", Values: campaign.Ints(r.ns...)},
			{Field: "faulty", Values: campaign.Ints(0, 1)},
		},
		Finish: func(s *harness.Spec) error {
			excess := s.FaultyCount
			atMaxFaults(s)
			s.FaultyCount += excess
			s.Seed = int64(s.Params.N*10 + s.FaultyCount)
			return nil
		},
	}, t, func(res harness.Result) []string {
		periodOK := res.MinPeriod >= res.PminBound-1e-9 && res.CompleteRounds > 0
		return []string{fmt.Sprint(res.Spec.Params.N), fmt.Sprint(res.Spec.Params.F),
			fmt.Sprint(res.Spec.FaultyCount),
			harness.F(res.MinPeriod), harness.F(res.PminBound), harness.FmtBool(periodOK),
			harness.F(res.EnvHi), harness.F(res.EnvBoundHi),
			harness.FmtBool(res.EnvHi <= res.EnvBoundHi)}
	})
}

// t7Messages measures per-round traffic against the O(n^2) bound.
func t7Messages(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	t := harness.NewTable("T7: message complexity per resynchronization round",
		"algo", "n", "msgs_per_round", "bound", "ratio_to_n2")
	t.AddNote("each correct process broadcasts once per round (+1 relay broadcast for auth): Theta(n^2) messages")
	return rows(ctx, opts, campaign.Campaign{
		Name: "T7",
		Base: harness.Spec{Params: operatingPoint(bounds.Auth), Attack: harness.AttackSilent},
		Axes: []campaign.Axis{
			{Field: "algo", Values: []string{string(harness.AlgoAuth), string(harness.AlgoPrim)}},
			{Field: "n", Values: campaign.Ints(4, 7, 13, 25)},
		},
		Finish: func(s *harness.Spec) error {
			s.Params.Variant = variantOf(s.Algo)
			atMaxFaults(s)
			s.Seed = int64(s.Params.N)
			return nil
		},
	}, t, func(res harness.Result) []string {
		p := res.Spec.Params
		return []string{string(res.Spec.Algo), fmt.Sprint(p.N),
			harness.F(res.MsgsPerRound), fmt.Sprint(p.MessagesPerRound()),
			harness.F(res.MsgsPerRound / float64(p.N*p.N))}
	})
}

// t8Scale pushes both algorithms to large clusters (n up to 101, f at the
// optimum) and confirms the bounds hold and the simulator remains
// practical. The two algorithms sweep different n, so T8 is two
// campaigns.
func t8Scale(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	t := harness.NewTable("T8: large-cluster scale-out at optimal resilience",
		"algo", "n", "f", "max_skew_s", "Dmax_bound_s", "within", "msgs_per_round", "pulses")
	t.AddNote("bounds are independent of n; measured skew shrinks with n (order-statistic concentration)")
	for _, sweep := range []struct {
		algo harness.Algorithm
		ns   []int
	}{
		{harness.AlgoAuth, []int{25, 51, 101}},
		{harness.AlgoPrim, []int{25, 52, 100}},
	} {
		_, err := rows(ctx, opts, campaign.Campaign{
			Name: "T8 " + string(sweep.algo),
			Base: harness.Spec{
				Algo: sweep.algo, Params: operatingPoint(variantOf(sweep.algo)),
				Attack: harness.AttackSilent, Horizon: 15,
			},
			Axes: []campaign.Axis{{Field: "n", Values: campaign.Ints(sweep.ns...)}},
			Finish: func(s *harness.Spec) error {
				atMaxFaults(s)
				s.Seed = int64(s.Params.N) * 13
				return nil
			},
		}, t, func(res harness.Result) []string {
			return []string{string(res.Spec.Algo), fmt.Sprint(res.Spec.Params.N),
				fmt.Sprint(res.Spec.Params.F),
				harness.F(res.MaxSkew), harness.F(res.SkewBound), harness.FmtBool(res.WithinSkew),
				harness.F(res.MsgsPerRound), fmt.Sprint(res.PulseCount)}
		})
		if err != nil {
			return nil, err
		}
	}
	return []*harness.Table{t}, nil
}

// skewRow is F2's and F6's row: the swept value, then measured skew
// against the Dmax bound.
func skewRow(swept func(harness.Result) string) func(harness.Result) []string {
	return func(res harness.Result) []string {
		return []string{swept(res), harness.F(res.MaxSkew), harness.F(res.SkewBound), harness.FmtBool(res.WithinSkew)}
	}
}

// f2SkewVsFaults sweeps the number of silent faults at n=13.
func f2SkewVsFaults(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	t := harness.NewTable("F2: skew vs faults (n=13, authenticated)",
		"f", "max_skew_s", "Dmax_bound_s", "within")
	t.AddNote("skew stays within the bound for every f up to ceil(n/2)-1 = 6")
	return rows(ctx, opts, campaign.Campaign{
		Name: "F2",
		Base: harness.Spec{Algo: harness.AlgoAuth, Params: defaultParams(13, bounds.Auth), Attack: harness.AttackSilent},
		Axes: []campaign.Axis{{Field: "f", Values: campaign.Ints(0, 1, 2, 3, 4, 5, 6)}},
		Finish: func(s *harness.Spec) error {
			s.FaultyCount = s.Params.F
			s.Seed = int64(s.Params.F) + 500
			return nil
		},
	}, t, skewRow(func(res harness.Result) string { return fmt.Sprint(res.Spec.Params.F) }))
}

// f6SkewVsPeriod sweeps the resynchronization period: skew grows linearly
// in P with slope ~ relative drift (2*rho), the paper's trade-off between
// message rate and precision. The drift is raised to 1e-3 to make the
// term visible; alpha stays the reference point's, not re-derived.
func f6SkewVsPeriod(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	t := harness.NewTable("F6: skew vs resynchronization period P (authenticated, n=7)",
		"P_s", "max_skew_s", "Dmax_bound_s", "within")
	t.AddNote("the drift term 2*rho*(1+rho)*P dominates for large P: skew is linear in P")
	p := defaultParams(7, bounds.Auth)
	p.Rho = clock.Rho(1e-3)
	return rows(ctx, opts, campaign.Campaign{
		Name: "F6",
		Base: harness.Spec{Algo: harness.AlgoAuth, Params: p, FaultyCount: p.F, Attack: harness.AttackSilent},
		Axes: []campaign.Axis{{Field: "period", Values: campaign.Floats(0.5, 1, 2, 5, 10)}},
		Finish: func(s *harness.Spec) error {
			s.Horizon = 20 * s.Params.Period
			s.Seed = int64(s.Params.Period * 100)
			return nil
		},
	}, t, skewRow(func(res harness.Result) string { return harness.F(res.Spec.Params.Period) }))
}

// f3SkewVsDelay sweeps dmax with the uncertainty u = dmax - dmin held
// fixed: ST skew grows linearly with d (Theta(d)), FTM's with u + rho*d —
// the separation later formalized by Lundelius-Welch/Lynch and sharpened
// in the signature setting by Lenzen-Loss (2022). The algo axis is the
// faster one, so each dmax yields an (ST, FTM) pair of cells.
func f3SkewVsDelay(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	const u = 0.002
	rep, err := campaign.Run(ctx, campaign.Campaign{
		Name: "F3",
		Base: harness.Spec{Params: defaultParams(7, bounds.Auth)},
		Axes: []campaign.Axis{
			{Field: "dmax", Values: campaign.Floats(0.002, 0.005, 0.01, 0.02, 0.05, 0.1)},
			{Field: "algo", Values: []string{string(harness.AlgoAuth), string(harness.AlgoFTM)}},
		},
		Finish: func(s *harness.Spec) error {
			p := &s.Params
			p.Variant = variantOf(s.Algo)
			p.DMin, p.InitialSkew = p.DMax-u, u
			p.Alpha = bounds.DefaultAlpha(p.Rho, p.DMax)
			atMaxFaults(s)
			s.Attack, s.Seed = harness.AttackSelective, int64(p.DMax*1e5)
			if s.Algo == harness.AlgoFTM {
				s.Attack, s.Seed = harness.AttackSilent, s.Seed+1
			}
			return nil
		},
	}, opts)
	if err != nil {
		return nil, err
	}
	t := harness.NewTable("F3: skew vs max delay d (uncertainty u = 2 ms fixed)",
		"dmax_s", "u_s", "st_auth_skew_s", "st_bound_s", "ftm_skew_s")
	for i := 0; i < len(rep.Results); i += 2 {
		st, ftm := rep.Results[i], rep.Results[i+1]
		t.AddRow(harness.F(st.Spec.Params.DMax), harness.F(u), harness.F(st.MaxSkew), harness.F(st.SkewBound), harness.F(ftm.MaxSkew))
	}
	t.AddNote("ST pays Theta(d): faulty signers serving only half the nodes force the rest onto the relay path (one full delay);")
	t.AddNote("FTM's midpoint pays Theta(u + rho*P): reading error only, so its skew barely moves with d")
	return []*harness.Table{t}, nil
}

// topologySweep is W1 and W3: the authenticated algorithm at n=16, f=3,
// fault-free, over a list of topologies. The paper's bounds assume a
// full mesh, so the tables report measured behaviour against the mesh
// bound rather than against an analytic one.
type topologySweep struct {
	id, title, column, note string
	topologies              []string
	seed                    int64
	// value renders the column-two cell from the topology name.
	value func(topology string) string
}

var (
	// w1 runs a ring of cliques and sweeps the region count. Every
	// inter-region hop stretches the acceptance spread by the hop
	// envelope, so skew grows with region count while liveness is
	// preserved — the mesh row (wan:1) is the control.
	w1 = topologySweep{
		id: "W1", title: "W1: skew vs WAN region count (st-auth, n=16, f=3, ring of cliques)",
		column:     "regions",
		topologies: []string{"wan:1", "wan:2", "wan:4", "wan:8"}, seed: 21,
		value: func(topology string) string { return strings.TrimPrefix(topology, "wan:") },
		note:  "wan:1 is the full-mesh control; the mesh skew bound does not apply across regions",
	}
	// w3 runs circulant graphs of shrinking degree. Round evidence
	// travels hop by hop through the relay step, so skew scales with the
	// graph diameter while per-round traffic shrinks with the degree. The
	// ring:2 row sits below the f+1 neighbourhood threshold: rounds only
	// complete through multi-hop evidence accumulation and the skew blows
	// far past the mesh bound.
	w3 = topologySweep{
		id: "W3", title: "W3: degradation on sparse circulant graphs (st-auth, n=16, f=3)",
		column:     "degree",
		topologies: []string{"mesh", "ring:8", "ring:4", "ring:2"}, seed: 23,
		value: func(topology string) string {
			if topology == "mesh" {
				return "15"
			}
			return strings.TrimPrefix(topology, "ring:")
		},
		note: "thinner graphs trade per-round traffic for hop-by-hop propagation latency; the mesh bound applies only to the mesh row",
	}
)

func (w topologySweep) run(ctx context.Context, opts campaign.Options) ([]*harness.Table, error) {
	t := harness.NewTable(w.title,
		"topology", w.column, "max_skew_s", "mesh_bound_s", "complete_rounds", "msgs_per_round")
	t.AddNote("%s", w.note)
	return rows(ctx, opts, campaign.Campaign{
		Name: w.id,
		Base: harness.Spec{
			Algo: harness.AlgoAuth, Params: sparseParams(16), Attack: harness.AttackNone,
			Horizon: 20, Seed: w.seed,
		},
		Axes: []campaign.Axis{{Field: "topology", Values: w.topologies}},
	}, t, func(res harness.Result) []string {
		return []string{
			res.Spec.Topology, w.value(res.Spec.Topology),
			harness.F(res.MaxSkew), harness.F(res.SkewBound),
			fmt.Sprint(res.CompleteRounds), harness.F(res.MsgsPerRound),
		}
	})
}
