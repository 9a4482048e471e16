package harness

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core/bounds"
	"optsync/internal/node"
	"optsync/internal/probe"
	"optsync/internal/sim"
	"optsync/internal/tracelake"
)

// skewPeak is where the skew among a set of logical clocks peaks.
type skewPeak struct {
	// Sup is the supremum of max − min over real time, reached at At or,
	// if Left, approached from before At (a jump at At ends it).
	Sup, At float64
	Left    bool
	// Hi and Lo are the clocks that read most and least there.
	Hi, Lo node.ID
}

// exactSkew sweeps the logical clocks clks of nodes ids (clks[k] is
// ids[k]'s) over real time [0, until] after a run and returns the
// supremum of their skew. The
// breakpoints are every clock's hardware breakpoints, its adjustment
// instants and, at a positive slewRate (the cluster's
// node.Config.SlewRate), the instants its slews reach their targets.
// Between two consecutive breakpoints every clock is affine in real time,
// so max − min is convex there and its supremum lies at a breakpoint: the
// right limit, which is what the clocks read, or the left limit, which at
// a jump is H + Old. A clock's past is its history, so the sweep only
// reads; it needs every node of ids booted at 0. It materializes hardware
// segments up to until, drawing from the node's random stream, so a run
// must not go on after it.
func exactSkew(clks []*clock.Logical, ids []node.ID, until, slewRate float64) skewPeak {
	ts := []float64{until}
	for _, clk := range clks {
		hw := clk.Hardware()
		hw.Read(until) // materialize every segment up to until
		ts = append(ts, hw.Breakpoints()...)
		for _, a := range clk.History() {
			ts = append(ts, a.RealTime)
			if slewRate > 0 {
				ts = append(ts, hw.Invert(a.LocalTime+math.Abs(a.New-a.Old)/slewRate))
			}
		}
	}
	slices.Sort(ts)
	ts = slices.Compact(ts)
	var peak skewPeak
	right, left := make([]float64, len(ids)), make([]float64, len(ids))
	consider := func(t float64, cs []float64, isLeft bool) {
		hi, lo := 0, 0
		for k, c := range cs {
			if c > cs[hi] {
				hi = k
			}
			if c < cs[lo] {
				lo = k
			}
		}
		if s := cs[hi] - cs[lo]; s > peak.Sup {
			peak = skewPeak{Sup: s, At: t, Left: isLeft, Hi: ids[hi], Lo: ids[lo]}
		}
	}
	for _, t := range ts {
		if t < 0 || t > until {
			continue
		}
		for k, clk := range clks {
			right[k] = clk.Read(t)
			left[k] = right[k]
			h := clk.History()
			if j := sort.Search(len(h), func(j int) bool { return h[j].RealTime >= t }); j < len(h) && h[j].RealTime == t {
				left[k] = clk.Hardware().Read(t) + h[j].Old
			}
		}
		consider(t, right, false)
		if t > 0 {
			consider(t, left, true)
		}
	}
	return peak
}

// clocksOf is the logical clocks of ids in cluster.
func clocksOf(cluster *node.Cluster, ids []node.ID) []*clock.Logical {
	clks := make([]*clock.Logical, len(ids))
	for k, id := range ids {
		clks[k] = cluster.Nodes[id].Clock()
	}
	return clks
}

// sweepRun boots spec, runs it to its horizon and sweeps its correct
// nodes' clocks. With lake non-nil it also records the run's node_boot
// and resync events there.
func sweepRun(t *testing.T, spec Spec, lake *tracelake.Writer) skewPeak {
	t.Helper()
	cluster, correct, err := Boot(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	if lake != nil {
		cluster.Engine.Probes().Attach(lake, probe.TypeNodeBoot, probe.TypeResync)
	}
	cluster.Run(spec.Horizon)
	return exactSkew(clocksOf(cluster, correct), correct, spec.Horizon, spec.SlewRate)
}

// exactSkewSpec is a named spec to sweep; table marks the specs that jump
// and are inside the resilience bound.
type exactSkewSpec struct {
	name  string
	spec  Spec
	table bool
}

// exactSkewSpecs are ROADMAP item 1's five table specs at horizon 50 and
// one slewing spec.
func exactSkewSpecs() []exactSkewSpec {
	auth := func(n, f int) bounds.Params { return lanParams(n, f, bounds.Auth) }
	prim := func(n, f int) bounds.Params { return lanParams(n, f, bounds.Primitive) }
	mesh25 := mesh25AuthSpec
	mesh25.Horizon = 50
	return []exactSkewSpec{
		{"auth-rush", Spec{Algo: AlgoAuth, Params: auth(7, 3), FaultyCount: 3, Attack: AttackRush, Horizon: 50}, true},
		{"auth-fault-free", Spec{Algo: AlgoAuth, Params: auth(7, 3), Attack: AttackNone, Horizon: 50}, true},
		{"mesh25-auth", mesh25, true},
		{"prim-rush", Spec{Algo: AlgoPrim, Params: prim(10, 3), FaultyCount: 3, Attack: AttackRush, Horizon: 50}, true},
		{"auth-selective-spread", Spec{Algo: AlgoAuth, Params: auth(7, 3), FaultyCount: 3, Attack: AttackSelective, SpreadDelays: true, Horizon: 50}, true},
		{"auth-equivocate-slew", Spec{Algo: AlgoAuth, Params: auth(9, 2), FaultyCount: 2, Attack: AttackEquivocate, SlewRate: 0.05, Horizon: 50}, false},
	}
}

// TestExactSkew holds the sweep to the sampled skew on exactSkewSpecs,
// seeds 1-5. The sweep is at least the sampled MaxSkew; on the table
// specs it is at most DmaxWithStart; at seed 1 a run sampled every
// 0.0002 s comes within (1+rho)*0.0002 of it; and with every spec time
// scaled by 2^±10 it scales by 2^±10, bit for bit, at the same instant
// and pair.
func TestExactSkew(t *testing.T) {
	for _, c := range exactSkewSpecs() {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				spec := c.spec
				spec.Seed = seed
				res, err := RunContext(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				peak := sweepRun(t, spec, nil)
				t.Logf("seed %d: sup %.6g at %.6f (left %v, %d-%d), sampled %.3f of it, %.3f of DmaxWithStart",
					seed, peak.Sup, peak.At, peak.Left, peak.Hi, peak.Lo, res.MaxSkew/peak.Sup, peak.Sup/res.SkewBound)
				if peak.Sup < res.MaxSkew {
					t.Fatalf("seed %d: sweep %v below the sampled MaxSkew %v", seed, peak.Sup, res.MaxSkew)
				}
				if c.table && peak.Sup > res.SkewBound {
					t.Fatalf("seed %d: sweep %v above DmaxWithStart %v", seed, peak.Sup, res.SkewBound)
				}
				if seed != 1 {
					continue
				}
				fine := spec
				fine.SampleEvery = 0.0002
				fres, err := RunContext(context.Background(), fine)
				if err != nil {
					t.Fatal(err)
				}
				if tol := spec.Params.Rho.MaxRate() * 0.0002; peak.Sup-fres.MaxSkew > tol || fres.MaxSkew > peak.Sup {
					t.Fatalf("sweep %v, sampled every 0.0002 s %v: more than %v apart", peak.Sup, fres.MaxSkew, tol)
				}
				for _, e := range []int{-10, 10} {
					got, want := sweepRun(t, scaleSpec(spec, e), nil), peak
					want.Sup, want.At = math.Ldexp(want.Sup, e), math.Ldexp(want.At, e)
					if got != want {
						t.Fatalf("scaled by 2^%d: sweep %+v, want %+v", e, got, want)
					}
				}
			}
		})
	}
}

// TestExactSkewReplaysFromLake: a lake of a run's node_boot and resync
// events, with the run's spec, rebuilds every correct node's logical
// clock: hardwareClock from the node's NodeStream, then every resync as
// SetAt(T, Value) in lake order. The rebuilt clocks sweep to the live
// sweep's peak bit for bit (sup, instant, side and pair) on
// exactSkewSpecs at seed 1, run at 1, 2 and 8 shards.
func TestExactSkewReplaysFromLake(t *testing.T) {
	for _, c := range exactSkewSpecs() {
		t.Run(c.name, func(t *testing.T) {
			var serial skewPeak
			for _, shards := range []int{1, 2, 8} {
				spec := c.spec
				spec.Seed, spec.Shards = 1, shards
				spec = spec.withDefaults()
				var buf bytes.Buffer
				w := tracelake.NewWriter(&buf)
				live := sweepRun(t, spec, w)
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}
				lake, err := tracelake.OpenBytes(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				var scratch clock.Scratch
				clks := make([]*clock.Logical, spec.Params.N)
				var ids []node.ID
				_, err = lake.Scan(tracelake.Query{}, func(ev probe.Event) error {
					id := int(ev.From)
					switch {
					case id >= spec.Params.N-spec.FaultyCount:
					case ev.Type == probe.TypeNodeBoot:
						rng := rand.New(sim.NewStream(spec.Seed, id, sim.NodeStream))
						clks[id] = clock.NewLogical(hardwareClock(spec, id, rng, &scratch), spec.SlewRate)
						ids = append(ids, id)
					default:
						clks[id].SetAt(ev.T, ev.Value)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if shards == 1 {
					serial = live
				}
				if live != serial || live.Sup == 0 || len(ids) != spec.Params.N-spec.FaultyCount {
					t.Fatalf("shards %d: live sweep %+v over %d booted correct nodes, serial %+v", shards, live, len(ids), serial)
				}
				slices.Sort(ids)
				replayed := make([]*clock.Logical, len(ids))
				for k, id := range ids {
					replayed[k] = clks[id]
				}
				if got := exactSkew(replayed, ids, spec.Horizon, spec.SlewRate); got != live {
					t.Fatalf("shards %d: the clocks rebuilt from the lake sweep to %+v, the live clocks to %+v", shards, got, live)
				}
			}
		})
	}
}

// jumpAt is a protocol that advances its clock by By when it reads At.
type jumpAt struct{ At, By float64 }

func (j jumpAt) Start(env node.Env) {
	env.AtLogical(j.At, func() { env.SetLogical(env.LogicalTime() + j.By) })
}

func (jumpAt) Deliver(node.Env, node.ID, node.Message) {}

// TestExactSkewFindsASpikeBetweenSamples: two clocks whose peak the
// sampler, every 50 ms, misses. In "spike", two perfect clocks, one
// jumping 4 ms ahead at 1.01 s and the other catching up at 1.015 s, are
// apart for 5 ms only; the sweep finds the right limit at 1.01. In
// "drift", a clock running 1e-4 fast jumps back to the other's reading
// at 1 s, 5e-6 s of skew after the last sample; the sweep finds the left
// limit there.
func TestExactSkewFindsASpikeBetweenSamples(t *testing.T) {
	never := jumpAt{At: 100}
	cases := []struct {
		name   string
		protos []node.Protocol
		rate0  float64
		want   skewPeak
	}{
		{"spike", []node.Protocol{jumpAt{At: 1.01, By: 0.004}, jumpAt{At: 1.015, By: 0.004}}, 1,
			skewPeak{Sup: 0.004, At: 1.01, Hi: 0, Lo: 1}},
		{"drift", []node.Protocol{jumpAt{At: 1.0001, By: -0.0001}, never}, 1.0001,
			skewPeak{Sup: 0.0001, At: 1, Left: true, Hi: 0, Lo: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rho := clock.Rho(1e-4)
			cluster := node.NewCluster(node.Config{
				N: 2, Rho: rho,
				Clocks: func(i int, _ *rand.Rand) *clock.Hardware {
					if i == 0 {
						return clock.NewConstant(0, c.rate0, rho)
					}
					return clock.NewConstant(0, 1, rho)
				},
				Protocols: func(i int) node.Protocol { return c.protos[i] },
			})
			defer cluster.Close()
			skew := probe.NewSkewStats()
			cluster.Engine.Probes().AttachCollector(skew)
			ids := []node.ID{0, 1}
			sampler := newSkewSampler(cluster, ids, 0.05)
			cluster.Start()
			cluster.Run(2)
			sampler.stop()
			if skew.Count() == 0 || skew.Max() > c.want.Sup*0.96 {
				t.Fatalf("the sampler saw %d samples, max %v: want samples, all short of %v", skew.Count(), skew.Max(), c.want.Sup)
			}
			peak := exactSkew(clocksOf(cluster, ids), ids, 2, 0)
			if math.Abs(peak.Sup-c.want.Sup) > 1e-12 || math.Abs(peak.At-c.want.At) > 1e-12 {
				t.Fatalf("sweep %+v, want %+v", peak, c.want)
			}
			peak.Sup, peak.At = c.want.Sup, c.want.At
			if peak != c.want {
				t.Fatalf("sweep %+v, want %+v", peak, c.want)
			}
		})
	}
}
