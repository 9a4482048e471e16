package harness

import (
	"context"
	"strings"
	"testing"

	"optsync/internal/core/bounds"
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
