package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// setupSlackS is the absolute slack on setup_s: a set-up that takes a
// fraction of a second may move by more than its relative bound without
// meaning anything.
const setupSlackS = 0.2

// parallelRatios are per-layer metrics that compare a parallel run with a
// serial one; taken at GOMAXPROCS=1 they measured nothing.
var parallelRatios = map[string]bool{
	"sim.shards_speedup":              true,
	"harness.batch_speedup":           true,
	"tracelake.scan_parallel_speedup": true,
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

func metricValues(runs []*runResult, name string) []float64 {
	var vals []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// verdict classifies b against a for one lower-is-better metric.
//
//	worse       b's median exceeds a's by more than the bound
//	better      b's median undercuts a's by more than the bound
//	same        within the bound either way
//	unresolved  either side's own run-to-run spread is wider than the
//	            bound, so the medians cannot settle it — unless every run
//	            of one side reads better than every run of the other
func verdict(a, b []float64, bound, slack float64) string {
	ma, mb := median(a), median(b)
	limit := max(bound*ma, slack)
	v := "same"
	switch {
	case mb > ma+limit:
		v = "worse"
	case mb < ma-limit:
		v = "better"
	}
	sa, okA := spread(a)
	sb, okB := spread(b)
	if (okA && sa > bound) || (okB && sb > bound) {
		lo := func(x []float64) float64 { return quantile(x, 0) }
		hi := func(x []float64) float64 { return quantile(x, 1) }
		switch {
		case hi(b) < lo(a):
			return "better"
		case lo(b) > hi(a):
			return "worse"
		}
		return "unresolved"
	}
	return v
}

// compareResults prints one row per workload and end-to-end metric and
// reports whether anything got worse, and whether everything is the same.
func compareResults(w io.Writer, man *manifest, a, b *resultsFile) (worse, allSame bool) {
	allSame = true
	fmt.Fprintf(w, "a: commit %s, %s, %d cores, GOMAXPROCS %d, seed %d\n", a.Host.Commit, a.Host.CPUModel, a.Host.NumCPU, a.Host.GOMAXPROCS, a.Host.Seed)
	fmt.Fprintf(w, "b: commit %s, %s, %d cores, GOMAXPROCS %d, seed %d\n", b.Host.Commit, b.Host.CPUModel, b.Host.NumCPU, b.Host.GOMAXPROCS, b.Host.Seed)
	fmt.Fprintf(w, "%-16s %-18s %12s %12s %8s %6s  %s\n", "workload", "metric", "a (median)", "b (median)", "change", "bound", "verdict")
	for _, wl := range man.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || len(ra.Runs) == 0 || len(rb.Runs) == 0 {
			fmt.Fprintf(w, "%-16s missing from one of the files\n", wl.Name)
			allSame = false
			continue
		}
		for _, e := range man.EndToEnd {
			va, vb := metricValues(ra.Runs, e.Name), metricValues(rb.Runs, e.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			slack := 0.0
			if e.Name == "setup_s" {
				slack = setupSlackS
			}
			v := verdict(va, vb, e.Bound, slack)
			worse = worse || v == "worse"
			allSame = allSame && v == "same"
			ma, mb := median(va), median(vb)
			fmt.Fprintf(w, "%-16s %-18s %12.5g %12.5g %+7.1f%% %5.0f%%  %s\n",
				wl.Name, e.Name, ma, mb, 100*(mb-ma)/ma, 100*e.Bound, v)
		}
		// A simulator-only speed-up must leave every simulated result
		// identical; the digest covers all of them.
		for i := range ra.Runs {
			if i < len(rb.Runs) && ra.Runs[i].Seed == rb.Runs[i].Seed && ra.Runs[i].SimDigest != rb.Runs[i].SimDigest {
				fmt.Fprintf(w, "%-16s seed %d: sim_digest differs — simulated results changed\n", wl.Name, ra.Runs[i].Seed)
				allSame = false
			}
		}
		fa, fb := failedShare(ra.Runs), failedShare(rb.Runs)
		if fa != 0 || fb != 0 {
			fmt.Fprintf(w, "%-16s failed ops: a %.1f%%, b %.1f%%\n", wl.Name, 100*fa, 100*fb)
			worse = worse || fb > fa
			allSame = false
		}
	}

	// Per-layer metrics have no bound: they explain, they do not gate.
	printed := false
	for _, wl := range man.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.Layers == nil || rb.Layers == nil {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "\nper-layer (no bounds)\n%-16s %-36s %12s %12s %8s\n", "workload", "metric", "a", "b", "change")
			printed = true
		}
		for _, u := range perLayerUnits {
			ma, mb := ra.Layers.Metrics[u.name].Value, rb.Layers.Metrics[u.name].Value
			if ma == 0 && mb == 0 {
				continue
			}
			note := ""
			if parallelRatios[u.name] && (a.Host.GOMAXPROCS == 1 || b.Host.GOMAXPROCS == 1) {
				note = "  unverified (GOMAXPROCS=1)"
			}
			change := "     n/a"
			if ma != 0 {
				change = fmt.Sprintf("%+7.1f%%", 100*(mb-ma)/ma)
			}
			fmt.Fprintf(w, "%-16s %-36s %12.5g %12.5g %s%s\n", wl.Name, u.name, ma, mb, change, note)
		}
	}
	return worse, allSame
}

func failedShare(runs []*runResult) float64 {
	ops, failed := 0, 0
	for _, r := range runs {
		ops += r.Ops
		failed += r.OpsFailed
	}
	if ops == 0 {
		return 0
	}
	return float64(failed) / float64(ops)
}

func compareFiles(w io.Writer, man *manifest, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if worse, _ := compareResults(w, man, a, b); worse {
		return errDisagree
	}
	return nil
}

// selfCheck runs every workload twice with identical code and settings
// and requires every end-to-end metric to agree within its own bound: a
// benchmark that cannot reproduce itself cannot judge a change.
func selfCheck(man *manifest, root, outDir string, seed int64, seconds float64) error {
	var sets [2]*resultsFile
	for i, file := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		rf, err := runSlate(man, root, outDir, file, seed, seconds, 1, "0")
		if err != nil {
			return err
		}
		sets[i] = rf
	}
	if _, same := compareResults(os.Stdout, man, sets[0], sets[1]); !same {
		return errDisagree
	}
	fmt.Printf("selfcheck: two sets agree within every bound (%s, %s)\n",
		filepath.Join(outDir, "selfcheck-a.json"), filepath.Join(outDir, "selfcheck-b.json"))
	return nil
}
