package harness

import (
	"fmt"
	"strconv"
	"strings"

	"optsync/internal/core/bounds"
	"optsync/internal/network"
)

// TopologyBuilder constructs the connectivity for a cluster. arg is the
// parameter text after the colon of a "name:arg" topology spec (empty
// when absent); p is the validated parameterization, from which builders
// derive delay-related constants (the built-in WAN hop delay scales with
// DMax, for example).
type TopologyBuilder func(arg string, p bounds.Params) (network.Topology, error)

// RegisterTopology makes a connectivity shape constructible by name
// through Spec.Topology, alongside the built-ins ("mesh", "wan:R",
// "ring:D"). Parameterized names use a colon: Spec.Topology "wan:4"
// resolves the builder registered under "wan" with arg "4". Same
// registration contract as RegisterProtocol, and the name must not
// contain ':'.
func RegisterTopology(name string, build TopologyBuilder) {
	if strings.Contains(name, ":") {
		panic(fmt.Sprintf("harness: topology %q: ':' separates the arg", name))
	}
	topologies.add(name, build, build == nil)
}

// Topologies returns the registered topology names, sorted.
func Topologies() []string { return topologies.names() }

// topologyFor resolves Spec.Topology and layers Spec.Partitions on top.
// It returns nil for the default spec (empty topology, no partitions),
// which the network treats as the full mesh.
func topologyFor(spec Spec) (network.Topology, error) {
	var topo network.Topology
	if spec.Topology != "" {
		name, arg := spec.Topology, ""
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name, arg = name[:i], name[i+1:]
			if arg == "" {
				// "wan:" is a truncated spec, not a request for the
				// default: misconfiguring silently would be worse than
				// failing loudly.
				return nil, fmt.Errorf("harness: topology %q: missing argument after ':'", spec.Topology)
			}
		}
		build, err := topologies.lookup(name)
		if err != nil {
			return nil, err
		}
		topo, err = build(arg, spec.Params)
		if err != nil {
			return nil, fmt.Errorf("harness: topology %q: %w", spec.Topology, err)
		}
	}
	if len(spec.Partitions) == 0 {
		return topo, nil
	}
	base := topo
	if base == nil {
		base = network.FullMesh{}
	}
	windows := make([]network.PartitionWindow, 0, len(spec.Partitions))
	for _, pw := range spec.Partitions {
		if pw.LeftSize <= 0 || pw.LeftSize >= spec.Params.N {
			return nil, fmt.Errorf("harness: partition LeftSize %d outside (0,%d)", pw.LeftSize, spec.Params.N)
		}
		left := make([]bool, spec.Params.N)
		for i := 0; i < pw.LeftSize; i++ {
			left[i] = true
		}
		windows = append(windows, network.PartitionWindow{At: pw.At, Heal: pw.Heal, Left: left})
	}
	return &network.Partitioned{Base: base, Windows: windows}, nil
}

func init() {
	RegisterTopology("mesh", func(arg string, _ bounds.Params) (network.Topology, error) {
		if arg != "" {
			return nil, fmt.Errorf("mesh takes no argument, got %q", arg)
		}
		return network.FullMesh{}, nil
	})

	// wan:R — R cliques on a ring; inter-region links pay a hop envelope
	// of [2*DMax, 4*DMax] on top of the base policy (a WAN hop costs a
	// few LAN delays).
	RegisterTopology("wan", func(arg string, p bounds.Params) (network.Topology, error) {
		regions := 2
		if arg != "" {
			r, err := strconv.Atoi(arg)
			if err != nil || r < 1 {
				return nil, fmt.Errorf("invalid region count %q", arg)
			}
			regions = r
		}
		if regions > p.N {
			return nil, fmt.Errorf("%d regions for %d nodes", regions, p.N)
		}
		return network.NewWANRegions(p.N, regions, 2*p.DMax), nil
	})

	// ring:D — the circulant graph of even degree D (node i linked to
	// i±1..i±D/2), the fixed-degree family for sparse-connectivity
	// degradation sweeps.
	RegisterTopology("ring", func(arg string, p bounds.Params) (network.Topology, error) {
		degree := 2
		if arg != "" {
			d, err := strconv.Atoi(arg)
			if err != nil {
				return nil, fmt.Errorf("invalid degree %q", arg)
			}
			degree = d
		}
		if degree < 2 || degree%2 != 0 || degree >= p.N {
			return nil, fmt.Errorf("degree %d must be even and in [2,%d] (use \"mesh\" for full connectivity)", degree, p.N-1)
		}
		return network.NewCirculant(p.N, degree), nil
	})
}
