package harness

import (
	"context"
	"strings"
	"testing"

	"optsync/internal/core/bounds"
)

func keyOf(t *testing.T, spec Spec) string {
	t.Helper()
	key, err := SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func TestSpecKeyStableAndDiscriminating(t *testing.T) {
	base := Spec{
		Algo: AlgoAuth, Params: goldenParams(5, bounds.Auth),
		FaultyCount: 1, Attack: AttackSilent, Horizon: 8, Seed: 1,
	}
	key := keyOf(t, base)
	if len(key) != 64 || strings.Trim(key, "0123456789abcdef") != "" {
		t.Fatalf("key %q is not hex sha256", key)
	}
	if keyOf(t, base) != key {
		t.Fatal("key not stable across calls")
	}

	// Presentation-only fields do not participate.
	named := base
	named.Name = "cell f=1"
	named.KeepSeries = true
	if keyOf(t, named) != key {
		t.Fatal("Name/KeepSeries changed the key")
	}

	// Defaults resolve before hashing: spelling out the default yields
	// the same computation, hence the same key.
	explicit := base
	explicit.Horizon = 8
	explicit.Attack = AttackSilent
	explicit.RushInterval = base.Params.Period / 10
	if keyOf(t, explicit) != key {
		t.Fatal("explicit defaults changed the key")
	}

	// Every physical field participates.
	for name, mutate := range map[string]func(*Spec){
		"seed":    func(s *Spec) { s.Seed = 2 },
		"horizon": func(s *Spec) { s.Horizon = 9 },
		"faulty":  func(s *Spec) { s.FaultyCount = 2 },
		"attack":  func(s *Spec) { s.Attack = AttackCrashMid },
		"algo":    func(s *Spec) { s.Algo = AlgoCNV },
		"dmax":    func(s *Spec) { s.Params.DMax = 0.02 },
		"topo":    func(s *Spec) { s.Topology = "wan:2" },
		"startat": func(s *Spec) { s.StartAt = map[int]float64{1: 2} },
		"parts":   func(s *Spec) { s.Partitions = []Partition{{At: 1, Heal: 2, LeftSize: 2}} },
	} {
		mutated := base
		mutate(&mutated)
		if keyOf(t, mutated) == key {
			t.Fatalf("mutating %s did not change the key", name)
		}
	}
}

// The key computed before a run equals the key of the result's spec
// after the run (RunContext returns the defaulted spec), so a store can
// be addressed from either side.
func TestSpecKeySurvivesRun(t *testing.T) {
	spec := Spec{
		Algo: AlgoAuth, Params: goldenParams(5, bounds.Auth),
		FaultyCount: 1, Attack: AttackSilent, Horizon: 5, Seed: 3,
	}
	before := keyOf(t, spec)
	res, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if after := keyOf(t, res.Spec); after != before {
		t.Fatalf("key drifted across run: %s != %s", after, before)
	}
}
