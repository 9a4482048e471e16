package harness

import (
	"context"
	"slices"
	"strings"
	"testing"

	"optsync/internal/core/bounds"
	"optsync/internal/network"
	"optsync/internal/sim"
)

func topoSpec(topology string) Spec {
	p := goldenParams(7, bounds.Auth)
	return Spec{
		Algo: AlgoAuth, Params: p,
		Attack: AttackNone, Topology: topology,
		Horizon: 3, Seed: 1,
	}
}

func TestUnknownTopologyIsError(t *testing.T) {
	_, err := RunContext(context.Background(), topoSpec("hypercube"))
	if err == nil || !strings.Contains(err.Error(), "unknown topology") {
		t.Fatalf("err = %v, want unknown-topology error", err)
	}
	// Bad args on a known topology are errors too, not panics — and they
	// must name the offending spec, not misconfigure silently. The matrix
	// covers missing (trailing colon), zero, negative, non-numeric, and
	// out-of-range arguments for every parameterized builtin.
	for _, bad := range []string{
		"wan:", "wan:0", "wan:-1", "wan:99", "wan:x", "wan:2.5", "wan:2x",
		"ring:", "ring:0", "ring:-2", "ring:1", "ring:3", "ring:8", "ring:y",
		"mesh:", "mesh:3",
	} {
		_, err := RunContext(context.Background(), topoSpec(bad))
		if err == nil {
			t.Fatalf("topology %q accepted", bad)
		}
		if !strings.Contains(err.Error(), `"`+bad+`"`) {
			t.Fatalf("topology %q: error does not name the spec: %v", bad, err)
		}
	}
}

func TestTopologyNamesResolve(t *testing.T) {
	for _, good := range []string{"mesh", "wan", "wan:2", "wan:4", "ring:4"} {
		res, err := RunContext(context.Background(), topoSpec(good))
		if err != nil {
			t.Fatalf("topology %q: %v", good, err)
		}
		if res.PulseCount == 0 {
			t.Fatalf("topology %q: no liveness", good)
		}
	}
	names := Topologies()
	for _, want := range []string{"mesh", "ring", "wan"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Fatalf("built-in topology %q not registered (have %v)", want, names)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	spec := topoSpec("")
	spec.Partitions = []Partition{{At: 1, Heal: 2, LeftSize: 0}}
	if _, err := RunContext(context.Background(), spec); err == nil {
		t.Fatal("LeftSize 0 accepted")
	}
	spec.Partitions = []Partition{{At: 1, Heal: 2, LeftSize: 7}}
	if _, err := RunContext(context.Background(), spec); err == nil {
		t.Fatal("LeftSize >= N accepted")
	}
	spec.Partitions = []Partition{{At: 1, Heal: 2, LeftSize: 3}}
	if _, err := RunContext(context.Background(), spec); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
}

// The mesh name must be exactly the default: identical results with and
// without it.
func TestExplicitMeshMatchesDefault(t *testing.T) {
	def := Run(topoSpec(""))
	mesh := Run(topoSpec("mesh"))
	def.Spec, mesh.Spec = Spec{}, Spec{} // specs differ by the name only
	if len(def.Series) != len(mesh.Series) {
		t.Fatal("series lengths differ")
	}
	if def.MaxSkew != mesh.MaxSkew || def.TotalMsgs != mesh.TotalMsgs ||
		def.PulseCount != mesh.PulseCount || def.EnvHi != mesh.EnvHi {
		t.Fatalf("explicit mesh diverged from default:\n %+v\n %+v", def, mesh)
	}
}

// FuzzTopologySpec resolves an arbitrary Spec.Topology string over n in
// 1..64 nodes, with one -partition window if the third input parses
// (seeds under testdata/fuzz/FuzzTopologySpec). topologyFor must return
// an error or a topology, nil only for the default spec. A topology must
// answer Linked for every pair before, during and after the window, a
// NeighborLister must list exactly the linked set in ascending order with
// the sender in it, and a built-in shape must name itself by a string
// that resolves to the same shape.
func FuzzTopologySpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, topology string, rawN uint8, partition string) {
		spec := Spec{Topology: topology, Params: bounds.Params{N: 1 + int(rawN%64), DMax: 0.01}}
		pw, perr := ParsePartition(partition)
		if perr == nil {
			spec.Partitions = []Partition{pw}
		}
		topo, err := topologyFor(spec)
		if err != nil {
			return
		}
		if topo == nil {
			if topology != "" || perr == nil {
				t.Fatalf("topology %q partition %q: nil topology and no error", topology, partition)
			}
			return
		}
		n := spec.Params.N
		for _, now := range []sim.Time{0, pw.At, pw.Heal} {
			for from := 0; from < n; from++ {
				for to := 0; to < n; to++ {
					topo.Linked(from, to, now)
				}
			}
		}
		if l, ok := topo.(network.NeighborLister); ok {
			for from := 0; from < n; from++ {
				var linked []network.NodeID
				for to := 0; to < n; to++ {
					if topo.Linked(from, to, 0) {
						linked = append(linked, to)
					}
				}
				if got := l.AppendNeighbors(from, nil); !slices.Equal(got, linked) || !slices.Contains(got, from) {
					t.Fatalf("%s: node %d lists %v, linked to %v", topo, from, got, linked)
				}
			}
		}
		name, _, _ := strings.Cut(topology, ":")
		if perr != nil && (name == "mesh" || name == "wan" || name == "ring") {
			again, err := topologyFor(Spec{Topology: topo.String(), Params: spec.Params})
			if err != nil || again.String() != topo.String() {
				t.Fatalf("%q resolved to %s, which resolves to %v (%v)", topology, topo, again, err)
			}
		}
	})
}
