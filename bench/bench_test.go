package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// smokeConfig runs a workload at its smallest: one set-up, no warm-up, two
// timed ops.
func smokeConfig(t *testing.T) runConfig {
	return runConfig{seed: 1, seconds: 0, minOps: 2, warmups: 0, setupRepeats: 1, tmpRoot: t.TempDir()}
}

// smokeDrivers runs every layer driver once, at smoke-test size, however
// many workloads ask.
func smokeDrivers(t *testing.T) func(time.Duration) (map[string]float64, error) {
	var once sync.Once
	var values map[string]float64
	var err error
	dir := t.TempDir()
	return func(time.Duration) (map[string]float64, error) {
		once.Do(func() { values, err = runLayerDrivers(driverConfig{small: true, tmpRoot: dir}) })
		return values, err
	}
}

func testManifest(t *testing.T) *manifest {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := loadManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func manifestNames(ms []manifestMetric) []string {
	names := make([]string, len(ms))
	for i, m := range ms {
		names[i] = m.Name
	}
	sort.Strings(names)
	return names
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram pins BENCHMARK.json to the program: the same
// workloads, the same metric names and units, in the same order.
func TestManifestMatchesProgram(t *testing.T) {
	man := testManifest(t)
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the allowed alphabet", w.Name)
		}
	}
	check := func(kind string, got []struct{ name, unit string }, want []manifestMetric) {
		if len(got) != len(want) {
			t.Fatalf("%s: the program has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s metric %d: program %s [%s], BENCHMARK.json %s [%s]",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
			if !nameRE.MatchString(got[i].name) {
				t.Errorf("metric name %q is outside the allowed alphabet", got[i].name)
			}
		}
	}
	check("end-to-end", endToEndUnits, man.EndToEnd)
	check("per-layer", perLayerUnits, man.PerLayer)
	if len(man.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(man.PerLayer))
	}
	for _, e := range man.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced and checks
// that each emits exactly the names BENCHMARK.json declares, that no op
// fails, and that tracing leaves the simulated results alone (measureTraced
// compares the records itself and reports a difference as a failure).
func TestWorkloadsSmoke(t *testing.T) {
	man := testManifest(t)
	wantE2E, wantLayers := manifestNames(man.EndToEnd), manifestNames(man.PerLayer)
	drivers := smokeDrivers(t)
	for _, w := range man.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			res, err := measure(w.Name, smokeConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.OpsFailed != 0 || res.Ops < 2 {
				t.Fatalf("untraced: ops=%d failed=%d failures=%v", res.Ops, res.OpsFailed, res.Failures)
			}
			if got := sortedKeys(res.Metrics); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
				t.Errorf("untraced metrics %v, want %v", got, wantE2E)
			}
			for name, m := range res.Metrics {
				if !(m.Value > 0) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v: end-to-end metrics are never 0", name, m.Value)
				}
			}
			if len(res.SimDigest) != 64 {
				t.Errorf("sim_digest %q", res.SimDigest)
			}

			cfg := smokeConfig(t)
			traceOut := filepath.Join(cfg.tmpRoot, "trace.json")
			tres, err := measureTraced(w.Name, cfg, drivers, traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if !tres.Correct || tres.OpsFailed != 0 {
				t.Fatalf("traced: failed=%d failures=%v", tres.OpsFailed, tres.Failures)
			}
			if got := sortedKeys(tres.Metrics); strings.Join(got, " ") != strings.Join(wantLayers, " ") {
				t.Errorf("traced metrics %v, want %v", got, wantLayers)
			}
			for name, m := range tres.Metrics {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			if info, err := os.Stat(traceOut); err != nil || info.Size() == 0 {
				t.Errorf("no trace written: %v", err)
			}
			if left, _ := filepath.Glob(filepath.Join(cfg.tmpRoot, "tmp-*")); len(left) != 0 {
				t.Errorf("temporary directories left behind: %v", left)
			}
		})
	}
}

// TestTraceAccountsForTheWholeOp checks the construction the per-layer
// table rests on: layer self times sum to the op's time, and the layers
// each workload is about actually show up.
func TestTraceAccountsForTheWholeOp(t *testing.T) {
	cfg := smokeConfig(t)
	p, err := prepare("mesh25-auth", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	tr := newOpTrace(0, time.Now())
	if _, err := timeOp(p.w, 0, tr); err != nil {
		t.Fatalf("traced op failed: %v", err)
	}
	f := tr.fold()
	sum := int64(0)
	for _, ns := range f.layerNs {
		sum += ns
	}
	if sum != f.WallNs {
		t.Errorf("layer self times sum to %d ns, the op took %d ns", sum, f.WallNs)
	}
	for _, layer := range []string{"sig", "core", "network.send", "clock", "harness", "sim.rest"} {
		if f.layerNs[layer] <= 0 {
			t.Errorf("layer %s has no time in a mesh25-auth op", layer)
		}
	}
	// 13 correct nodes sign once a round for 200 rounds.
	if got := f.Counts["sig.signs"]; got != 13*200 {
		t.Errorf("%v signatures, want %d", got, 13*200)
	}
	if f.Counts["core.delivers"] <= 0 || f.Counts["core.useful_delivers"] > f.Counts["core.delivers"] {
		t.Errorf("delivers %v, useful %v", f.Counts["core.delivers"], f.Counts["core.useful_delivers"])
	}
}

// TestLakeChecksCatchDamage feeds the lake-query checks a corrupted lake
// and wrong aggregates: both must be refused.
func TestLakeChecksCatchDamage(t *testing.T) {
	dir := t.TempDir()
	w := &lakeQueryWorkload{}
	if err := w.setup(dir, 1); err != nil {
		t.Fatal(err)
	}
	good, err := runLakeSession(w.path, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.check(w.events, w.liveSkew, w.liveMsgs); err != nil {
		t.Fatalf("an undamaged session fails its checks: %v", err)
	}

	skew := append(w.liveSkew[:0:0], w.liveSkew...)
	skew[0].Value++
	if err := good.check(w.events, skew, w.liveMsgs); err == nil {
		t.Error("a wrong live skew aggregate passed the replay check")
	}
	if err := good.check(w.events+1, w.liveSkew, w.liveMsgs); err == nil {
		t.Error("a wrong event count passed")
	}

	data, err := os.ReadFile(w.path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	bad := filepath.Join(dir, "bad.lake")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := runLakeSession(bad, 7, nil); err == nil {
		if err := s.check(w.events, w.liveSkew, w.liveMsgs); err == nil {
			t.Error("a lake with a flipped byte passed every check")
		}
	}
}

// TestCampaignChecksCatchDamage feeds the campaign checks a wrong
// aggregate and wrong cell accounting.
func TestCampaignChecksCatchDamage(t *testing.T) {
	o, err := runCampaignOp(filepath.Join(t.TempDir(), "store"), benchCampaign(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.check(); err != nil {
		t.Fatalf("an undamaged campaign fails its checks: %v", err)
	}
	o.loose.Groups[0].Skew.Mean *= 1.0000001
	if err := o.check(); err == nil {
		t.Error("a wrong single-process aggregate passed")
	}
	o.loose.Groups = o.fabric.Groups
	o.segment.Executed, o.segment.CacheHits = 1, campaignCells-1
	if err := o.check(); err == nil {
		t.Error("a resume that executed a cell passed")
	}
}

// TestSpreadMatchesPython pins spread to Python's
// statistics.quantiles(values, n=4), which the acceptance driver uses:
// for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestSpreadMatchesPython(t *testing.T) {
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	got, ok := spread(vals)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := spread([]float64{3}); ok {
		t.Error("one value has a spread")
	}
}

func TestVerdict(t *testing.T) {
	tight := func(c float64) []float64 { return []float64{c * 0.995, c, c * 1.005, c, c * 0.998, c * 1.002} }
	wide := func(c float64) []float64 { return []float64{c * 0.8, c * 0.9, c, c * 1.1, c * 1.2, c * 1.3} }
	for _, c := range []struct {
		name         string
		a, b         []float64
		bound, slack float64
		want         string
	}{
		{"within bound", tight(100), tight(104), 0.08, 0, "same"},
		{"beyond bound", tight(100), tight(110), 0.08, 0, "worse"},
		{"gain", tight(100), tight(80), 0.08, 0, "better"},
		{"noisy and overlapping", wide(100), wide(112), 0.08, 0, "unresolved"},
		{"noisy but disjoint", wide(100), wide(40), 0.08, 0, "better"},
		{"absolute slack", tight(0.3), tight(0.45), 0.25, 0.2, "same"},
		{"single runs", []float64{100}, []float64{120}, 0.08, 0, "worse"},
	} {
		if got := verdict(c.a, c.b, c.bound, c.slack); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
