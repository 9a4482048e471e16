package harness

import (
	"fmt"
	"runtime"
	"testing"

	"optsync/internal/core/bounds"
)

// TestClusterBuildCostPerNode is the floor under the per-node fixed cost.
// On sparse degree the large-n tiers pay for what every node owns before
// it sends a message — protocol, clocks, random stream — not for traffic:
// with math/rand's 607-word source behind every node stream the build was
// 6.3 KB per node and n = 65 536 spent a second and 400 MB building. The
// budget leaves ~2x headroom over what sim.Stream measures (0.9 KB, 11
// objects), so a per-node slab or another per-node generator fails here.
func TestClusterBuildCostPerNode(t *testing.T) {
	const (
		n          = 4096
		maxBytes   = 2048
		maxObjects = 16
	)
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p := goldenParams(n, bounds.Auth)
			p.F = 3
			spec := Spec{
				Algo: AlgoAuth, Params: p, Attack: AttackNone,
				Topology: "ring:8", Horizon: 1, Seed: 1, Shards: shards,
			}.withDefaults()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			cluster, err := buildCluster(spec)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			defer cluster.Close()
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
			objects := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("cluster build: %.0f B and %.1f objects per node", bytes, objects)
			if bytes > maxBytes || objects > maxObjects {
				t.Errorf("cluster build costs %.0f B and %.1f objects per node, budget %d B and %d",
					bytes, objects, maxBytes, maxObjects)
			}
		})
	}
}
