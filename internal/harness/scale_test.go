package harness

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"
)

// assertScaleTable checks the shared L1/L2 contract: every row completed
// at least (horizon - 1) rounds — the cluster keeps resynchronizing at
// scale — with a finite, positive skew.
func assertScaleTable(t *testing.T, tb *Table, wantRows int) {
	t.Helper()
	if len(tb.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tb.Rows), wantRows)
	}
	rounds := colIndex(t, tb, "complete_rounds")
	skew := colIndex(t, tb, "max_skew_s")
	horizon := colIndex(t, tb, "horizon_s")
	for _, row := range tb.Rows {
		r, err := strconv.Atoi(row[rounds])
		if err != nil {
			t.Fatalf("bad complete_rounds %q: %v", row[rounds], err)
		}
		h, err := strconv.ParseFloat(row[horizon], 64)
		if err != nil {
			t.Fatalf("bad horizon %q: %v", row[horizon], err)
		}
		if float64(r) < h-1 {
			t.Fatalf("scaling run stalled: %d rounds over %v s horizon: %v", r, h, row)
		}
		s, err := strconv.ParseFloat(row[skew], 64)
		if err != nil || s <= 0 || s > 1 {
			t.Fatalf("implausible max skew %q: %v", row[skew], row)
		}
	}
}

func TestL1ScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	assertScaleTable(t, firstTable(t, L1Scale), 2)
}

func TestL2ScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	assertScaleTable(t, firstTable(t, L2Scale), 1)
}

func TestL3ScaleCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("large clusters")
	}
	assertScaleTable(t, firstTable(t, L3Scale), 1)
}

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
			spec := Spec{
				Algo: AlgoAuth, Params: scaleParams(n), Attack: AttackNone,
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
