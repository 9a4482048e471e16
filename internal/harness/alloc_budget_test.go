package harness

import (
	"context"
	"runtime"
	"testing"

	"optsync/internal/clock"
	"optsync/internal/core/bounds"
)

// lanParams is the benchmark's operating point (bench/w_run.go).
func lanParams(n, f int, v bounds.Variant) bounds.Params {
	return bounds.Params{
		N: n, F: f, Variant: v, Rho: clock.Rho(1e-4),
		DMin: 0.002, DMax: 0.010, Period: 1.0, InitialSkew: 0.005,
	}.WithDefaults()
}

// The benchmark's simulation specs: ring2048-auth (the L1 scale spec),
// mesh256-prim, mesh25-auth (at a tenth of its horizon) and one cell of the
// campaign-fabric grid.
var (
	ring2048AuthSpec = Spec{
		Algo: AlgoAuth, Params: lanParams(2048, 3, bounds.Auth),
		Attack: AttackNone, Topology: "ring:8", Horizon: 6, Seed: 1,
	}
	mesh256PrimSpec = Spec{
		Algo: AlgoPrim, Params: lanParams(256, 85, bounds.Primitive),
		FaultyCount: 85, Attack: AttackSilent, Horizon: 8, Seed: 1,
	}
	mesh25AuthSpec = Spec{
		Algo: AlgoAuth, Params: lanParams(25, 12, bounds.Auth),
		FaultyCount: 12, Attack: AttackSilent, Horizon: 20, Seed: 1,
	}
	campaignCellSpec = Spec{
		Algo: AlgoAuth, Params: lanParams(7, 3, bounds.Auth),
		FaultyCount: 2, Attack: AttackSilent, Horizon: 12, Seed: 1,
	}
)

func mustRun(t *testing.T, spec Spec) Result {
	t.Helper()
	res, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runAllocBytes is the heap a run of spec allocates, set-up to result.
func runAllocBytes(t *testing.T, spec Spec) float64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mustRun(t, spec)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// TestRunAllocBudgets bounds what one run allocates in total, in the mould
// of TestClusterBuildCostPerNode. At large n the bytes are the queue and the
// payload arena, which hold what is in flight — chunks from one pool, one
// slot per broadcast — and not one array per bucket index and one envelope
// per recipient: that design measured 30.0 MB and 16.1 MB here, this one
// 17.7 MB and 5.7 MB with 64-byte events and sorted id slices as the
// primitive's ready sets, 17.2 MB and 4.1 MB with 48-byte events and
// 64-sender bit words. A delivery to a silent node is counted, not queued,
// so mesh256-prim's queue holds two thirds of the events it did and takes
// 3.2 MB instead of 4.0 MB. At n = 7 the bytes are fixed costs, the Engine
// value first (13.3 KB of 115.4 KB with two 256-bucket rungs of slice headers,
// 9.3 KB of 98.5 KB with one rung of 32-byte buckets): a cell must not pay
// for the large run's structures, nor for a closure per skew sample.
func TestRunAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	for _, tc := range []struct {
		name   string
		spec   Spec
		budget float64
	}{
		{"ring2048-auth", ring2048AuthSpec, 22 << 20}, // measured 16.5 MB
		{"mesh256-prim", mesh256PrimSpec, 3630 << 10}, // measured 3298.6 KB
		{"mesh25-auth", mesh25AuthSpec, 400 << 10},    // measured 351.3 KB, 1.2 KB of it the signature memo
		{"campaign-cell", campaignCellSpec, 80 << 10}, // measured 70.4 KB
	} {
		t.Run(tc.name, func(t *testing.T) {
			runAllocBytes(t, tc.spec) // package-level lazies (registries, kinds)
			got := runAllocBytes(t, tc.spec)
			t.Logf("%s: %.1f KB per run", tc.name, got/1024)
			if got > tc.budget {
				t.Errorf("%s allocates %.1f KB per run, budget %.1f KB", tc.name, got/1024, tc.budget/1024)
			}
		})
	}
}

// TestClockStorageSizedOnce: every correct clock's storage is allocated
// once, at build. A run to the horizon, serial or at two shards, leaves the
// hardware breakpoints in the array buildCluster stored them in, and fills
// the logical history within the room its first SetAt reserved.
func TestClockStorageSizedOnce(t *testing.T) {
	mesh25 := mesh25AuthSpec
	mesh25.Horizon = 200 // the benchmark's own horizon
	for _, base := range []struct {
		name string
		spec Spec
	}{{"mesh25-auth", mesh25}, {"campaign-cell", campaignCellSpec}} {
		for _, shards := range []int{1, 2} {
			spec := base.spec
			spec.Shards = shards
			spec = spec.withDefaults()
			cluster, err := buildCluster(spec)
			if err != nil {
				t.Fatal(err)
			}
			correct := correctIDs(spec.Params.N, spec.FaultyCount)
			built := make([]*float64, len(correct))
			sizes := make([]int, len(correct))
			for _, id := range correct {
				bp := cluster.Nodes[id].Clock().Hardware().Breakpoints()
				built[id], sizes[id] = &bp[0], len(bp)
			}
			cluster.Start()
			sampler := newSkewSampler(cluster, correct, spec.SampleEvery)
			cluster.Run(spec.Horizon)
			sampler.stop()
			reserved := resyncsBound(spec)
			for _, id := range correct {
				lc := cluster.Nodes[id].Clock()
				if bp := lc.Hardware().Breakpoints(); &bp[0] != built[id] || len(bp) != sizes[id] {
					t.Errorf("%s at %d shards: node %d's hardware clock grew from %d to %d breakpoints",
						base.name, shards, id, sizes[id], len(bp))
				}
				if h := lc.History(); len(h) == 0 || cap(h) != reserved {
					t.Errorf("%s at %d shards: node %d's history holds %d of %d, want room for %d",
						base.name, shards, id, len(h), cap(h), reserved)
				}
			}
			cluster.Close()
		}
	}
}
