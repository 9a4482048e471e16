package optsync_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	"optsync"
)

// Synchronize 5 drifting clocks with the authenticated Srikanth-Toueg
// algorithm while 2 of them are Byzantine-silent, and watch the skew stay
// under the analytic bound: describe the run as a Spec, execute it with
// Run, read the Result.
func Example() {
	// 1. Describe the deployment: 5 processes, up to 2 Byzantine
	//    (optimal for the authenticated algorithm: f = ceil(n/2)-1),
	//    quartz-grade drift, LAN-grade delays, one resync per second.
	params := optsync.Params{
		N: 5, F: 2, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),  // rates within [1/1.0001, 1.0001]
		DMin: 0.002, DMax: 0.010, // delays within [2ms, 10ms]
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	if err := params.Validate(); err != nil {
		panic(err)
	}

	// 2. Describe the experiment: the algorithm and the attack are
	//    registry names — the same strings a third-party extension would
	//    register under. The two highest-id nodes are silent from boot.
	spec := optsync.Spec{
		Algo: optsync.AlgoAuth, Params: params,
		FaultyCount: 2, Attack: optsync.AttackSilent,
		Horizon: 20, SampleEvery: 1.0,
		Seed: 42,
	}

	// 3. Run it. WithKeepSeries retains the skew trace for printing.
	res, err := optsync.Run(context.Background(), spec, optsync.WithKeepSeries())
	if err != nil {
		panic(err)
	}

	fmt.Printf("Dmax bound: %.4fs   acceptance-spread bound: %.4fs\n\n",
		params.DmaxWithStart(), params.Beta())
	fmt.Println("  t(s)   skew(s)")
	for _, s := range res.Series {
		fmt.Printf("%6.1f  %.6f\n", s.T, s.Skew)
	}
	verdict := "BOUND VIOLATED"
	if res.WithinSkew {
		verdict = "within the paper's bound"
	}
	fmt.Printf("\nmax skew %.6fs vs bound %.6fs — %s\n", res.MaxSkew, res.SkewBound, verdict)
	fmt.Printf("rounds accepted: %d pulses across %d correct nodes\n",
		res.PulseCount, params.N-spec.FaultyCount)

	// Output:
	// Dmax bound: 0.0202s   acceptance-spread bound: 0.0100s
	//
	//   t(s)   skew(s)
	//    1.0  0.002935
	//    2.0  0.006331
	//    3.0  0.007692
	//    4.0  0.002837
	//    5.0  0.007878
	//    6.0  0.006467
	//    7.0  0.003362
	//    8.0  0.005052
	//    9.0  0.003598
	//   10.0  0.003640
	//   11.0  0.006200
	//   12.0  0.003079
	//   13.0  0.002494
	//   14.0  0.002162
	//   15.0  0.002604
	//   16.0  0.003659
	//   17.0  0.004614
	//   18.0  0.002459
	//   19.0  0.001608
	//   20.0  0.003470
	//
	// max skew 0.007878s vs bound 0.020204s — within the paper's bound
	// rounds accepted: 60 pulses across 3 correct nodes
}

// The paper's headline claim, accuracy: run the Srikanth-Toueg algorithms
// and the two prior-art baselines (interactive convergence CNV,
// fault-tolerant midpoint FTM) under the strongest accuracy attack each
// admits, and compare the long-run rate of the synchronized clocks against
// the hardware drift envelope. The four long runs are independent, so
// RunBatch executes them in parallel, one worker per core; the results do
// not depend on the worker count.
func ExampleRunBatch() {
	p := optsync.Params{
		N: 7, F: 2, Variant: optsync.Primitive, // f < n/3 so all four algorithms apply
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	pAuth := p
	pAuth.Variant = optsync.Auth
	pAuth = pAuth.WithDefaults()

	runs := []struct {
		algo   optsync.Algorithm
		params optsync.Params
		attack optsync.Attack
		note   string
	}{
		{optsync.AlgoAuth, pAuth, optsync.AttackEquivocate, "equivocating + stale evidence"},
		{optsync.AlgoPrim, p, optsync.AttackSilent, "silent faults (max tolerated)"},
		{optsync.AlgoCNV, p, optsync.AttackBias, "within-threshold biased reports"},
		{optsync.AlgoFTM, p, optsync.AttackBias, "within-threshold biased reports"},
	}
	specs := make([]optsync.Spec, len(runs))
	for i, r := range runs {
		specs[i] = optsync.Spec{
			Algo: r.algo, Params: r.params,
			FaultyCount: r.params.F, Attack: r.attack,
			Horizon: 120 * r.params.Period,
			Seed:    23,
		}
		if r.attack == optsync.AttackBias {
			specs[i].Bias = 3 * r.params.Dmax()
		}
	}
	results, err := optsync.RunBatch(context.Background(), specs)
	if err != nil {
		panic(err)
	}

	fmt.Printf("hardware drift bound rho = %g: honest clock rates within [%.6f, %.6f]\n\n",
		float64(p.Rho), p.Rho.MinRate(), p.Rho.MaxRate())
	fmt.Printf("%-14s %-32s %-10s %-22s %s\n", "algorithm", "attack", "rate", "allowed envelope", "verdict")
	for i, res := range results {
		verdict := "accuracy preserved"
		if !res.WithinEnvelope {
			verdict = "ACCURACY DESTROYED"
		}
		fmt.Printf("%-14s %-32s %-10.5f [%.5f, %.5f]     %s\n",
			runs[i].algo, runs[i].note, res.EnvHi, res.EnvBoundLo, res.EnvBoundHi, verdict)
	}
	// The ST algorithms hold the paper's provable envelope under every
	// within-resilience attack: optimal accuracy. CNV's egocentric mean is
	// dragged ~f*Bias/n per round; FTM leaks only the correct-spread
	// scale, but neither baseline can bound its rate by the hardware drift.

	// Output:
	// hardware drift bound rho = 0.0001: honest clock rates within [0.999900, 1.000100]
	//
	// algorithm      attack                           rate       allowed envelope       verdict
	// st-auth        equivocating + stale evidence    1.00499    [0.97929, 1.01121]     accuracy preserved
	// st-primitive   silent faults (max tolerated)    1.00089    [0.96943, 1.01155]     accuracy preserved
	// cnv            within-threshold biased reports  1.01316    [0.99940, 1.00060]     ACCURACY DESTROYED
	// ftm            within-threshold biased reports  1.00139    [0.99940, 1.00060]     ACCURACY DESTROYED
}

// The same rush attack run twice against the authenticated algorithm:
// once within the resilience bound (f = ceil(n/2)-1, harmless) and once
// one fault beyond it, where the coalition forges signature quorums and
// drives the cluster's clocks at 5x speed. Colluding faulty nodes
// broadcast signed round evidence every P/5 = 200ms.
//
// With f+1 colluders the coalition alone assembles the f+1-signature
// quorum: unforgeability is gone, rounds fire at the adversary's pace, and
// accuracy is destroyed. Agreement survives: the relay step still spreads
// every forged round to all correct nodes within one delay. This is the
// paper's resilience boundary: f = ceil(n/2)-1 is optimal with signatures.
func ExampleRun_byzantine() {
	params := optsync.Params{
		N: 5, F: 2, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	verdict := func(ok bool) string {
		if ok {
			return "ok"
		}
		return "*** VIOLATED ***"
	}

	for _, faulty := range []int{params.F, params.F + 1} {
		res, err := optsync.Run(context.Background(), optsync.Spec{
			Algo: optsync.AlgoAuth, Params: params,
			FaultyCount: faulty, Attack: optsync.AttackRush,
			RushInterval: params.Period / 5,
			Horizon:      30 * params.Period,
			Seed:         7,
		})
		if err != nil {
			panic(err)
		}
		label := "WITHIN resilience"
		if faulty > params.F {
			label = "BEYOND resilience"
		}
		fmt.Printf("=== %s: %d faulty of n=%d (tolerance %d) ===\n", label, faulty, params.N, params.F)
		fmt.Printf("  clock rate:        %.4f (bound %.4f) %s\n",
			res.EnvHi, res.EnvBoundHi, verdict(res.EnvHi <= res.EnvBoundHi))
		fmt.Printf("  min pulse period:  %.4fs (bound %.4fs) %s\n",
			res.MinPeriod, res.PminBound, verdict(res.MinPeriod >= res.PminBound-1e-9))
		fmt.Printf("  max skew:          %.4fs (bound %.4fs) %s\n",
			res.MaxSkew, res.SkewBound, verdict(res.WithinSkew))
	}

	// Output:
	// === WITHIN resilience: 2 faulty of n=5 (tolerance 2) ===
	//   clock rate:        1.0101 (bound 1.0143) ok
	//   min pulse period:  0.9899s (bound 0.9597s) ok
	//   max skew:          0.0023s (bound 0.0202s) ok
	// === BEYOND resilience: 3 faulty of n=5 (tolerance 2) ===
	//   clock rate:        5.0001 (bound 1.0143) *** VIOLATED ***
	//   min pulse period:  0.1924s (bound 0.9597s) *** VIOLATED ***
	//   max skew:          0.0070s (bound 0.0202s) ok
}

// A process that boots 12.4 seconds late with a clock 17 s off joins a
// running cluster by passively accepting the first resynchronization
// round it observes: synchronized within one period, as the paper's
// integration section promises. The late boot and the wrong clock are
// ordinary Spec fields (StartAt, ClockOffset).
func ExampleRun_reintegration() {
	params := optsync.Params{
		N: 5, F: 2, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	const (
		joiner = 4
		joinAt = 12.4
	)
	res, err := optsync.Run(context.Background(), optsync.Spec{
		Algo: optsync.AlgoAuth, Params: params,
		Attack:  optsync.AttackNone,
		Horizon: 20, SampleEvery: 1.0,
		Seed:        11,
		StartAt:     map[int]float64{joiner: joinAt},
		ClockOffset: map[int]float64{joiner: 17.0}, // fresh from repair
	}, optsync.WithKeepSeries())
	if err != nil {
		panic(err)
	}

	fmt.Printf("node %d boots at t=%.1fs with its clock %.0fs off\n\n", joiner, joinAt, 17.0)
	fmt.Println("  t(s)   skew over booted nodes (s)")
	for _, s := range res.Series {
		marker := ""
		if s.T >= joinAt && s.T < joinAt+1 {
			marker = "   <- joiner boots"
		}
		fmt.Printf("%6.1f  %.6f%s\n", s.T, s.Skew, marker)
	}
	firstPulse := -1.0
	for _, rec := range res.Pulses {
		if rec.Node == joiner {
			firstPulse = rec.Real
			break
		}
	}
	bound := params.Pmax() + params.Beta()
	fmt.Printf("\njoiner's first accepted round: t=%.3fs (%.3fs after boot)\n",
		firstPulse, firstPulse-joinAt)
	fmt.Printf("paper bound: one period ~ %.3fs — %v\n", bound, firstPulse-joinAt <= bound)
	last := res.Series[len(res.Series)-1].Skew
	fmt.Printf("final skew including joiner: %.6fs (Dmax %.6fs) — %v\n",
		last, params.DmaxWithStart(), last <= params.DmaxWithStart())

	// Output:
	// node 4 boots at t=12.4s with its clock 17s off
	//
	//   t(s)   skew over booted nodes (s)
	//    1.0  0.003145
	//    2.0  0.006928
	//    3.0  0.004176
	//    4.0  0.004546
	//    5.0  0.001587
	//    6.0  0.005213
	//    7.0  0.003378
	//    8.0  0.006034
	//    9.0  0.000921
	//   10.0  0.001888
	//   11.0  0.005423
	//   12.0  0.004161
	//   13.0  0.003430   <- joiner boots
	//   14.0  0.004316
	//   15.0  0.003787
	//   16.0  0.003185
	//   17.0  0.004293
	//   18.0  0.002849
	//   19.0  0.003138
	//   20.0  0.002442
	//
	// joiner's first accepted round: t=12.950s (0.550s after boot)
	// paper bound: one period ~ 1.040s — true
	// final skew including joiner: 0.002442s (Dmax 0.020204s) — true
}

// A 7-node cluster is cut 3|4 for ten periods and heals. While the cut is
// up the minority side (3 nodes < f+1 = 4) cannot assemble any round
// quorum, so its clocks free-run on hardware drift and the cluster-wide
// skew climbs past the full-mesh bound. Once the cut heals, the majority's
// next relay re-synchronizes the minority within a single round. The same
// churn composes with any topology, e.g. WithTopology("wan:4").
func ExampleWithPartitions() {
	params := optsync.Params{
		N: 7, F: 3, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	const (
		cutAt  = 10.0
		healAt = 20.0
	)
	res, err := optsync.Run(context.Background(), optsync.Spec{
		Algo: optsync.AlgoAuth, Params: params,
		Attack:  optsync.AttackNone,
		Horizon: 30, SampleEvery: 1.0,
		Seed: 7,
	},
		optsync.WithPartitions(optsync.Partition{At: cutAt, Heal: healAt, LeftSize: 3}),
		optsync.WithKeepSeries(),
	)
	if err != nil {
		panic(err)
	}

	fmt.Printf("nodes {0,1,2} | {3,4,5,6} partitioned during [%.0fs, %.0fs)\n\n", cutAt, healAt)
	fmt.Println("  t(s)   skew (s)")
	var worst, after float64
	for _, s := range res.Series {
		marker := ""
		switch {
		case s.T >= cutAt && s.T < cutAt+1:
			marker = "   <- partition"
		case s.T >= healAt && s.T < healAt+1:
			marker = "   <- heal"
		}
		fmt.Printf("%6.1f  %.6f%s\n", s.T, s.Skew, marker)
		if s.T >= cutAt && s.T < healAt && s.Skew > worst {
			worst = s.Skew
		}
		if s.T >= healAt+2*params.Period && s.Skew > after {
			after = s.Skew
		}
	}
	fmt.Printf("\nworst skew while cut:     %.6f s (mesh bound %.6f s)\n", worst, res.SkewBound)
	fmt.Printf("steady skew after heal:   %.6f s — reintegrated by the relay step\n", after)

	// Output:
	// nodes {0,1,2} | {3,4,5,6} partitioned during [10s, 20s)
	//
	//   t(s)   skew (s)
	//    1.0  0.003882
	//    2.0  0.003725
	//    3.0  0.005021
	//    4.0  0.004260
	//    5.0  0.004553
	//    6.0  0.004143
	//    7.0  0.004354
	//    8.0  0.003395
	//    9.0  0.004031
	//   10.0  0.004354   <- partition
	//   11.0  0.004789
	//   12.0  0.009452
	//   13.0  0.007687
	//   14.0  0.010297
	//   15.0  0.011834
	//   16.0  0.013065
	//   17.0  0.014817
	//   18.0  0.018031
	//   19.0  0.023294
	//   20.0  0.023096   <- heal
	//   21.0  0.004164
	//   22.0  0.001735
	//   23.0  0.003752
	//   24.0  0.004209
	//   25.0  0.002996
	//   26.0  0.003938
	//   27.0  0.002764
	//   28.0  0.003270
	//   29.0  0.005087
	//   30.0  0.003451
	//
	// worst skew while cut:     0.023294 s (mesh bound 0.020204 s)
	// steady skew after heal:   0.005087 s — reintegrated by the relay step
}

// deafAfter is a custom faulty behaviour: the node runs the protocol
// correctly but stops processing input at a deadline, a receiver whose
// NIC died. It wraps whatever correct protocol the spec selects, so it
// works against every registered algorithm.
type deafAfter struct {
	inner optsync.Protocol
	at    float64
}

func (d *deafAfter) Start(env optsync.Env) { d.inner.Start(env) }

func (d *deafAfter) Deliver(env optsync.Env, from optsync.ID, msg optsync.Message) {
	if env.RealTime() >= d.at {
		return // deaf: input is dropped, output keeps flowing
	}
	d.inner.Deliver(env, from, msg)
}

// RegisterAttack panics on a name registered twice, so registration
// belongs in init, which runs once per process.
func init() {
	optsync.RegisterAttack("deaf-mid", func(spec optsync.Spec, _ optsync.AttackEnv) (optsync.Protocol, error) {
		inner, err := optsync.NewProtocol(spec)
		if err != nil {
			return nil, err
		}
		return &deafAfter{inner: inner, at: spec.Horizon / 2}, nil
	})
}

// A custom attack registered through the public extension point ("deaf-mid"
// above, addressable from any Spec and from the syncsim CLI) swept against
// the built-in silent attack: an (n x attack) grid fanned out over every
// core by RunBatch, each cell averaged over 3 seeds, and every result
// streamed to a CSV sink in input order, whatever the worker count.
func ExampleRegisterAttack() {
	var specs []optsync.Spec
	for _, n := range []int{5, 9, 15} {
		p := optsync.Params{
			N: n, F: optsync.Auth.MaxFaults(n), Variant: optsync.Auth,
			Rho:  optsync.Rho(1e-4),
			DMin: 0.002, DMax: 0.010,
			Period:      1.0,
			InitialSkew: 0.005,
		}.WithDefaults()
		for _, attack := range []optsync.Attack{optsync.AttackSilent, "deaf-mid"} {
			specs = append(specs, optsync.Spec{
				Name: fmt.Sprintf("n%d-%s", n, attack),
				Algo: optsync.AlgoAuth, Params: p,
				FaultyCount: p.F, Attack: attack,
				Horizon: 15, Seed: int64(n),
			})
		}
	}
	results, err := optsync.RunBatch(context.Background(), specs,
		optsync.WithSeeds(3),
		optsync.WithSink(optsync.NewCSVSink(os.Stdout)),
	)
	if err != nil {
		panic(err)
	}
	violations := 0
	for _, res := range results {
		if !res.WithinSkew {
			violations++
		}
	}
	// Deafness is benign: a deaf node only hurts itself.
	fmt.Printf("%d runs, %d skew-bound violations\n", len(results), violations)

	// Output:
	// name,algo,attack,n,f,faulty,seed,horizon_s,max_skew_s,skew_bound_s,within_skew,max_spread_s,spread_bound_s,complete_rounds,pulses,min_period_s,max_period_s,pmin_bound_s,pmax_bound_s,env_lo,env_hi,env_bound_lo,env_bound_hi,within_envelope,total_msgs,msgs_per_round,delivered,dropped,dropped_offline,dropped_link,skew_p50_s,skew_p95_s,skew_p99_s
	// n5-silent,st-auth,silent,5,2,2,5,15,0.00636472232797658,0.020204009500010004,true,0.005569438813738614,0.01,15,45,0.9899362918778323,1.001207213754224,0.9596980206979202,1.0300989998999999,1.0026574871058769,1.0027726348770452,0.9717221274500001,1.018775040609132,true,450,30,450,0,0,0,0.002524181485250217,0.005489503808081112,0.005605146182034029
	// n5-silent,st-auth,silent,5,2,2,6,15,0.0077223889577382465,0.020204009500010004,true,0.006735426250788379,0.01,15,45,0.9909791542990449,1.0034194450790546,0.9596980206979202,1.0300989998999999,1.002436585058622,1.0027880280724428,0.9717221274500001,1.018775040609132,true,450,30,450,0,0,0,0.003374936598617908,0.006651477797674875,0.006763823619044981
	// n5-silent,st-auth,silent,5,2,2,7,15,0.008788727986964062,0.020204009500010004,true,0.0087883608060082,0.01,15,45,0.9909532342073701,1.0050801395792863,0.9596980206979202,1.0300989998999999,1.0023789032137376,1.00246195073968,0.9717221274500001,1.018775040609132,true,450,30,450,0,0,0,0.0026073358226890815,0.00792717375500219,0.008783791290386814
	// n5-deaf-mid,st-auth,deaf-mid,5,2,2,5,15,0.005574953941836824,0.020204009500010004,true,0.005570816122755673,0.01,15,59,0.9899367600627649,1.0013782299600589,0.9596980206979202,1.0300989998999999,1.0036054205741298,1.0036360599385385,0.9717221274500001,1.018775040609132,true,670,44.666666666666664,670,0,0,0,0.0025706047699350465,0.004881225542646972,0.005569824452027807
	// n5-deaf-mid,st-auth,deaf-mid,5,2,2,6,15,0.007018396580910746,0.020204009500010004,true,0.00577882424725118,0.01,15,59,0.9899746833236707,1.0018014139198659,0.9596980206979202,1.0300989998999999,1.0036866798914155,1.0040551983421462,0.9717221274500001,1.018775040609132,true,670,44.666666666666664,670,0,0,0,0.002692208336214426,0.005421975596565639,0.005426365451658184
	// n5-deaf-mid,st-auth,deaf-mid,5,2,2,7,15,0.0063471025910804,0.020204009500010004,true,0.006346283571637912,0.01,15,59,0.990062209299647,1.0044691053007657,0.9596980206979202,1.0300989998999999,1.0036149237044667,1.0037530718945136,0.9717221274500001,1.018775040609132,true,670,44.666666666666664,670,0,0,0,0.0025025070327223424,0.006118411428346092,0.006322565998313994
	// n9-silent,st-auth,silent,9,4,4,9,15,0.005223312859380158,0.020204009500010004,true,0.004793699973387966,0.01,15,75,0.9941996919027138,1.0040074452080419,0.9596980206979202,1.0300989998999999,1.0010493795628517,1.0011899942446156,0.9717221274500001,1.018775040609132,true,1350,90,1340,0,0,0,0.003337679396346765,0.004717670753750856,0.00489237513597304
	// n9-silent,st-auth,silent,9,4,4,10,15,0.005931367354877537,0.020204009500010004,true,0.005916003610905385,0.01,15,75,0.9922186513123386,1.0037917439105346,0.9596980206979202,1.0300989998999999,1.001364895200907,1.0016131064020732,0.9717221274500001,1.018775040609132,true,1350,90,1350,0,0,0,0.003987319553831097,0.005883293547960589,0.005930312019075968
	// n9-silent,st-auth,silent,9,4,4,11,15,0.005345683018516567,0.020204009500010004,true,0.0071578561828928855,0.01,15,75,0.9920688428369608,1.0038186779395861,0.9596980206979202,1.0300989998999999,1.0012869809533667,1.0014217235079959,0.9717221274500001,1.018775040609132,true,1350,90,1347,0,0,0,0.002727024003652244,0.005267900332330923,0.0053445446868982
	// n9-deaf-mid,st-auth,deaf-mid,9,4,4,9,15,0.007371083760303598,0.020204009500010004,true,0.003937527683540054,0.01,15,103,0.9921573757899269,1.0029044404596554,0.9596980206979202,1.0300989998999999,1.0028492027826341,1.0029519093841757,0.9717221274500001,1.018775040609132,true,2142,142.8,2142,0,0,0,0.0028440638708044645,0.003970846502085255,0.0041273148714272775
	// n9-deaf-mid,st-auth,deaf-mid,9,4,4,10,15,0.006277887938563875,0.020204009500010004,true,0.004364737341132852,0.01,15,103,0.9918103644672587,1.0031017919740357,0.9596980206979202,1.0300989998999999,1.0030026620796395,1.0031816285738306,0.9717221274500001,1.018775040609132,true,2142,142.8,2142,0,0,0,0.003230390037510982,0.004398748371540329,0.00483023701507416
	// n9-deaf-mid,st-auth,deaf-mid,9,4,4,11,15,0.005061902546200869,0.020204009500010004,true,0.007156385937943099,0.01,15,103,0.9920685860192684,1.004327100325705,0.9596980206979202,1.0300989998999999,1.002813506332648,1.0029987325566303,0.9717221274500001,1.018775040609132,true,2142,142.8,2142,0,0,0,0.002928220442473068,0.0046100819939775,0.005054173301462032
	// n15-silent,st-auth,silent,15,7,7,15,15,0.004453136079964892,0.020204009500010004,true,0.0041959152262336374,0.01,15,120,0.9958502590780514,1.0035445229438942,0.9596980206979202,1.0300989998999999,1.000583586946617,1.0007227662129954,0.9717221274500001,1.018775040609132,true,3600,240,3487,0,0,0,0.002790837682962638,0.004162829266478159,0.0041864614240954175
	// n15-silent,st-auth,silent,15,7,7,16,15,0.005515430152438938,0.020204009500010004,true,0.005020490933542732,0.01,15,120,0.9939416064288729,1.0042004439167513,0.9596980206979202,1.0300989998999999,1.0007191286462112,1.0008332749278936,0.9717221274500001,1.018775040609132,true,3600,240,3498,0,0,0,0.0029756465831034342,0.004931953772222612,0.005080531474748459
	// n15-silent,st-auth,silent,15,7,7,17,15,0.006507505890832821,0.020204009500010004,true,0.006480161490253877,0.01,14,116,0.9932918865091303,1.0037781195050166,0.9596980206979202,1.0300989998999999,1.000475402333637,1.00064011587852,0.9717221274500001,1.018775040609132,true,3540,252.85714285714286,3474,0,0,0,0.0030668217496985384,0.00642133999587468,0.006500888443433467
	// n15-deaf-mid,st-auth,deaf-mid,15,7,7,15,15,0.0036526536381762398,0.020204009500010004,true,0.0035933982974531986,0.01,15,169,0.9928049126284844,1.0018566106190185,0.9596980206979202,1.0300989998999999,1.0026910030296288,1.0028216030984474,0.9717221274500001,1.018775040609132,true,5910,394,5910,0,0,0,0.0025311764973819104,0.0036231057378073913,0.003651570570114149
	// n15-deaf-mid,st-auth,deaf-mid,15,7,7,16,15,0.007005841015162773,0.020204009500010004,true,0.003947652885631925,0.01,15,169,0.9927363089248109,1.0024159788354083,0.9596980206979202,1.0300989998999999,1.0026443123106163,1.0028421992873957,0.9717221274500001,1.018775040609132,true,5910,394,5910,0,0,0,0.003232925344859138,0.003940951521605009,0.004534899421234441
	// n15-deaf-mid,st-auth,deaf-mid,15,7,7,17,15,0.006376778783714787,0.020204009500010004,true,0.004110048359135199,0.01,15,169,0.9922616092698135,1.0026593384674136,0.9596980206979202,1.0300989998999999,1.0026519630086728,1.002769292568453,0.9717221274500001,1.018775040609132,true,5910,394,5910,0,0,0,0.002408083188333128,0.003884096957043985,0.004450878243400509
	// 18 runs, 0 skew-bound violations
}

// delaySweep is the (faulty x dmax) sweep ExampleRunCampaign runs in
// one process and ExampleServeCampaign runs on a fleet.
func delaySweep(name string) optsync.Campaign {
	p := optsync.Params{
		N: 7, F: 3, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()
	return optsync.Campaign{
		Name: name,
		Base: optsync.Spec{
			Algo: optsync.AlgoAuth, Params: p,
			Attack: optsync.AttackSilent, Horizon: 12, Seed: 1,
		},
		Axes: []optsync.Axis{
			{Field: "faulty", Values: optsync.Ints(0, 1, 2, 3)},
			{Field: "dmax", Values: optsync.Floats(0.006, 0.010, 0.014)},
		},
		Seeds: 3, // every cell averaged over 3 independent seeds
	}
}

// printTable prints a rendered table without the padding after its last
// column, which an Output comment cannot hold.
func printTable(rendered string) {
	for _, line := range strings.Split(rendered, "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// A (faulty x dmax) parameter space described once and run through a
// persistent content-addressed store, printed as per-group mean/std/
// quantile aggregates. A second pass over the same store is 100% cache
// hits: finished cells are never recomputed, even by another process.
// Then a bisection on the dmax axis finds the widest delay bound that
// still meets the paper's agreement bound, without gridding the axis.
func ExampleRunCampaign() {
	dir, err := os.MkdirTemp("", "campaign-store")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := optsync.OpenStore(dir)
	if err != nil {
		panic(err)
	}
	c := delaySweep("resilience-vs-delay")
	report, err := optsync.RunCampaign(context.Background(), c, optsync.WithStore(store))
	if err != nil {
		panic(err)
	}
	printTable(report.Table().Render())

	again, err := optsync.RunCampaign(context.Background(), c, optsync.WithStore(store))
	if err != nil {
		panic(err)
	}
	fmt.Printf("second pass: %d executed, %d cached\n\n", again.Executed, again.CacheHits)

	// Bisection settles O(log k) cells per group instead of k, and shares
	// the store with the campaign above.
	search, err := optsync.RunThresholdSearch(context.Background(), optsync.Campaign{
		Name: "dmax-threshold",
		Base: c.Base,
		Axes: []optsync.Axis{
			{Field: "dmax", Values: optsync.Floats(
				0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016, 0.018)},
		},
		Seeds: 2,
	}, optsync.ThresholdSearch{Axis: "dmax"}, optsync.WithStore(store))
	if err != nil {
		panic(err)
	}
	printTable(search.Table().Render())

	// Seal what this run appended: fsynced, indexed, three files on disk.
	// (A store left unclosed loses nothing; its next open re-indexes it.)
	if err := store.Close(); err != nil {
		panic(err)
	}

	// Output:
	// == resilience-vs-delay ==
	// group                cells  pass_rate  skew_mean  skew_std    skew_p95   skew_max   skew_bound  run_p95_mean  pulses_mean  rounds_mean  msgs_per_round  drops_mean
	// ------------------------------------------------------------------------------------------------------------------------------------------------------------------
	// faulty=0 dmax=0.006  3      1          0.0072884  0.0022179   0.0094449  0.0096107  0.016202    0.0036997     84           12           98              0
	// faulty=0 dmax=0.01   3      1          0.0082276  0.00060366  0.0089189  0.0090049  0.020204    0.0044165     84           12           98              0
	// faulty=0 dmax=0.014  3      1          0.0075683  0.00075693  0.0084819  0.0086271  0.024206    0.0073975     84           12           98              0
	// faulty=1 dmax=0.006  3      1          0.0047177  0.0011931   0.0061555  0.0063794  0.016202    0.003968      72           12           84              0
	// faulty=1 dmax=0.01   3      1          0.0068141  0.00039329  0.0071777  0.0072012  0.020204    0.0052905     72           12           84              0
	// faulty=1 dmax=0.014  3      1          0.00951    0.0010784   0.010453   0.010501   0.024206    0.0088063     72           12           84              0
	// faulty=2 dmax=0.006  3      1          0.005168   0.0017199   0.0072427  0.0075695  0.016202    0.0039209     60           12           70              0
	// faulty=2 dmax=0.01   3      1          0.0062761  0.00034627  0.0066778  0.00673    0.020204    0.0049805     60           12           70              0
	// faulty=2 dmax=0.014  3      1          0.0075144  0.00069277  0.0082479  0.0083206  0.024206    0.0069147     60           12           70              0
	// faulty=3 dmax=0.006  3      1          0.0049834  0.0016212   0.0069422  0.0072664  0.016202    0.0035995     48           12           56              0
	// faulty=3 dmax=0.01   3      1          0.0064605  0.00087484  0.007502   0.0076518  0.020204    0.0063876     48           12           56              0
	// faulty=3 dmax=0.014  3      1          0.0090535  0.0016638   0.011035   0.011321   0.024206    0.0090073     44           11           56              0
	// note: 36 cells: 36 executed, 0 cached
	//
	// second pass: 0 executed, 36 cached
	//
	// == threshold search on dmax ==
	// group  last_pass  first_fail  evaluated
	// ---------------------------------------
	// (all)  0.018      -           6
	// note: 6 executed, 0 cached (exhaustive grid: 16 cells)
}

// A two-worker local fleet in one process. A coordinator serves the
// campaign over loopback HTTP while stateless workers lease cells,
// simulate them, and report back. The fleet's aggregates are
// byte-identical to what a single-process RunCampaign produces for the
// same sweep, because every cell is content-addressed and every
// simulation is deterministic: resuming from the fleet's store executes
// nothing. The same topology works across real processes and machines:
//
//	syncsim serve -axis faulty=0,1,2,3 -axis dmax=0.006,0.010,0.014 \
//	        -seeds 3 -store ./fabric-store -addr :9190
//	syncsim work -coordinator http://COORDINATOR:9190   # on each box
func ExampleServeCampaign() {
	dir, err := os.MkdirTemp("", "fabric-store")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	store, err := optsync.OpenStore(dir)
	if err != nil {
		panic(err)
	}
	c := delaySweep("fabric-demo")

	// Coordinator: binds loopback, hands the bound address to the workers
	// through the Ready hook, compacts the store on exit.
	ready := make(chan string, 1)
	var report *optsync.CampaignReport
	var serveErr error
	served := make(chan struct{})
	go func() {
		defer close(served)
		report, serveErr = optsync.ServeCampaign(context.Background(), c, store,
			optsync.FabricServeOptions{
				ServerOptions: optsync.FabricServerOptions{LeaseBatch: 2},
				Ready:         func(addr string) { ready <- "http://" + addr },
				Linger:        200 * time.Millisecond,
				CompactOnExit: true,
			})
	}()
	url := <-ready

	// How the cells split between the workers depends on scheduling; the
	// aggregates do not.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = optsync.RunWorker(context.Background(), url, optsync.FabricWorkerOptions{
				Name:         fmt.Sprintf("worker-%d", i),
				Batch:        2,
				PollInterval: 50 * time.Millisecond,
			})
		}()
	}
	wg.Wait()
	<-served
	if err := errors.Join(append(errs, serveErr)...); err != nil {
		panic(err)
	}
	printTable(report.Table().Render())

	reopened, err := optsync.OpenStore(dir)
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	single, err := optsync.RunCampaign(context.Background(), c, optsync.WithStore(reopened))
	if err != nil {
		panic(err)
	}
	fmt.Printf("fleet == single-process aggregates: %v (resume executed %d cells)\n",
		single.Table().CSV() == report.Table().CSV(), single.Executed)

	// Output:
	// == fabric-demo ==
	// group                cells  pass_rate  skew_mean  skew_std    skew_p95   skew_max   skew_bound  run_p95_mean  pulses_mean  rounds_mean  msgs_per_round  drops_mean
	// ------------------------------------------------------------------------------------------------------------------------------------------------------------------
	// faulty=0 dmax=0.006  3      1          0.0072884  0.0022179   0.0094449  0.0096107  0.016202    0.0036997     84           12           98              0
	// faulty=0 dmax=0.01   3      1          0.0082276  0.00060366  0.0089189  0.0090049  0.020204    0.0044165     84           12           98              0
	// faulty=0 dmax=0.014  3      1          0.0075683  0.00075693  0.0084819  0.0086271  0.024206    0.0073975     84           12           98              0
	// faulty=1 dmax=0.006  3      1          0.0047177  0.0011931   0.0061555  0.0063794  0.016202    0.003968      72           12           84              0
	// faulty=1 dmax=0.01   3      1          0.0068141  0.00039329  0.0071777  0.0072012  0.020204    0.0052905     72           12           84              0
	// faulty=1 dmax=0.014  3      1          0.00951    0.0010784   0.010453   0.010501   0.024206    0.0088063     72           12           84              0
	// faulty=2 dmax=0.006  3      1          0.005168   0.0017199   0.0072427  0.0075695  0.016202    0.0039209     60           12           70              0
	// faulty=2 dmax=0.01   3      1          0.0062761  0.00034627  0.0066778  0.00673    0.020204    0.0049805     60           12           70              0
	// faulty=2 dmax=0.014  3      1          0.0075144  0.00069277  0.0082479  0.0083206  0.024206    0.0069147     60           12           70              0
	// faulty=3 dmax=0.006  3      1          0.0049834  0.0016212   0.0069422  0.0072664  0.016202    0.0035995     48           12           56              0
	// faulty=3 dmax=0.01   3      1          0.0064605  0.00087484  0.007502   0.0076518  0.020204    0.0063876     48           12           56              0
	// faulty=3 dmax=0.014  3      1          0.0090535  0.0016638   0.011035   0.011321   0.024206    0.0090073     44           11           56              0
	// note: 36 cells: 36 executed, 0 cached
	//
	// fleet == single-process aggregates: true (resume executed 0 cells)
}

// Observe a run through the composable probe API instead of retained
// series: streaming collectors (O(1)-memory skew quantiles, traffic
// counters), a JSONL trace of every event, and an ad-hoc probe counting
// partition markers. Replaying the trace through fresh collectors gives
// the aggregates back bit for bit. This is the workflow behind
// `syncsim -run ... -trace f` + `syncsim trace -in f`, in library form.
func ExampleReplayTrace() {
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

	// Output:
	// max skew 0.006919s (bound 0.020204s), p50 0.002659s, p95 0.005870s — no series retained
	// traffic: 952 sent, 952 delivered, 0 offline drops, 56 link drops
	// partition markers seen: 2 (cut@8s, heal@12s)
	// trace: 2496 events in 294867 bytes (JSON Lines)
	//
	// replayed 2496 events: aggregates bit-identical = true
	//   skew samples    399
	//   skew min_s      0.00111658
	//   skew max_s      0.00691884
	//   skew mean_s     0.00287625
	//   skew p50_s      0.00265937
	//   skew p95_s      0.00586959
	//   skew p99_s      0.00609065
}

// Record a run as a columnar trace lake and mine it with predicate-pushdown
// queries, no full-stream replay required. The lake stores events as
// per-type column blocks behind a footer index, so a typed, time-bounded
// query decodes only the blocks whose bounds intersect it. Selective
// replays rebuild collector aggregates from just the matching slice. This
// is the workflow behind `syncsim -run ... -trace run.lake` + `syncsim
// query`, in library form. Scans decode blocks on one worker per core,
// with output identical at every worker count (LakeQuery.WithWorkers).
func ExampleQueryLake() {
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
		Horizon: 30, Seed: 7,
	}

	// 1. Record the run straight into a lake: the writer is a probe, so
	//    there is no intermediate row trace to convert.
	var img bytes.Buffer
	lw := optsync.NewLakeWriter(&img)
	if _, err := optsync.Run(context.Background(), spec, optsync.WithLakeTrace(lw)); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "query-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "run.lake")
	if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
		panic(err)
	}
	fmt.Printf("recorded %d events into run.lake (%d bytes)\n\n", lw.Events(), img.Len())

	// 2. A typed, time-bounded query: skew samples from the middle third
	//    of the run. Blocks whose type or time bounds miss the query are
	//    never decoded.
	q := optsync.LakeQuery{}.WithTypes(optsync.EventSkewSample).WithTimeRange(10, 20)
	worst := 0.0
	st, err := optsync.QueryLake(path, q, func(ev optsync.Event) error {
		worst = max(worst, ev.Value)
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("skew samples in t=[10,20]: %d matched, worst %.6fs\n", st.EventsMatched, worst)
	fmt.Printf("pushdown: %d/%d blocks pruned unread, %d decoded\n\n",
		st.BlocksPruned, st.BlocksTotal, st.BlocksScanned)

	// 3. Per-node forensics: everything node 3 sent or received in round
	//    5, which a row trace answers only by scanning front to back.
	st, err = optsync.QueryLake(path, optsync.LakeQuery{}.WithNode(3).WithRound(5),
		func(optsync.Event) error { return nil })
	if err != nil {
		panic(err)
	}
	fmt.Printf("node 3, round 5: %d events\n\n", st.EventsMatched)

	// 4. Selective replay: rebuild skew aggregates from only the second
	//    half of the run through a fresh collector.
	late := optsync.NewSkewCollector()
	n, err := optsync.ReplayLake(path, optsync.LakeQuery{}.WithTimeRange(15, 30), late)
	if err != nil {
		panic(err)
	}
	fmt.Printf("late-window replay: %d events -> skew p95 %.6fs, max %.6fs\n\n",
		n, late.P95(), late.Max())

	// 5. Footer-only counting: when every admitted block is fully covered
	//    by the query bounds (a whole-lake count always is), Stats answers
	//    from the footer index and decodes nothing.
	l, err := optsync.OpenLake(path)
	if err != nil {
		panic(err)
	}
	defer l.Close()
	fst, err := l.Stats(optsync.LakeQuery{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("footer-only count: %d events across %d blocks, %d rows decoded\n",
		fst.EventsMatched, fst.BlocksCovered, fst.RowsDecoded)

	// Output:
	// recorded 4206 events into run.lake (61126 bytes)
	//
	// skew samples in t=[10,20]: 200 matched, worst 0.006207s
	// pushdown: 5/6 blocks pruned unread, 1 decoded
	//
	// node 3, round 5: 41 events
	//
	// late-window replay: 2100 events -> skew p95 0.006075s, max 0.006207s
	//
	// footer-only count: 4206 events across 6 blocks, 0 rows decoded
}
