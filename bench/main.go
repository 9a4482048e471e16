// Command bench is the repository's benchmark: six named workloads over
// the simulator, the campaign fabric and the trace lake, six end-to-end
// metrics on each, and a per-layer table from layer drivers and a traced
// pass. BENCHMARK.json at the repository root declares every name, unit
// and bound; README.md in this directory explains the choices.
//
//	bash bench/run.sh                         all workloads, both passes
//	bash bench/run.sh -workload W -seed S     one workload, end-to-end metrics
//	bash bench/run.sh -workload W -trace 1    one workload, per-layer metrics
//	bash bench/run.sh -layers                 layer drivers only
//	bash bench/run.sh -compare a.json b.json  compare two result files
//	bash bench/run.sh -selfcheck              run twice, require agreement
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errDisagree marks a -compare or -selfcheck that found a regression.
var errDisagree = errors.New("results disagree beyond the benchmark's bounds")

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "run one workload (default: all six, each in a child process)")
		seed         = fs.Int64("seed", 1, "workload seed: op i simulates Spec.Seed = seed*10000 + i")
		seconds      = fs.Float64("seconds", 0, "length of the timed phase (default: run_seconds of BENCHMARK.json)")
		trace        = fs.String("trace", "", "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass and the layer drivers (default: 0 for one workload, both for all)")
		runs         = fs.Int("runs", 1, "with all workloads: untraced runs per workload, each with the next seed")
		layers       = fs.Bool("layers", false, "run the layer drivers only")
		compare      = fs.Bool("compare", false, "compare two result files: -compare a.json b.json")
		selfcheck    = fs.Bool("selfcheck", false, "run every workload twice and require every end-to-end metric to agree within its bound")
		out          = fs.String("out", "", "with -workload: also write the full result to this file")
		traceOut     = fs.String("traceout", "", "with -workload -trace 1: write the recorded spans to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// No more load than the reference host has cores for: shards, lake
	// scan workers and batch pools all size themselves from GOMAXPROCS.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	root, err := findRoot()
	if err != nil {
		return err
	}
	man, err := loadManifest(root)
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	outDir := filepath.Join(root, "bench", "out")

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, man, fs.Arg(0), fs.Arg(1))
	case *layers:
		return printLayers(outDir, *seconds)
	case *workloadName != "":
		return runOne(*workloadName, *seed, *seconds, *trace == "1", outDir, *out, *traceOut)
	case *selfcheck:
		return selfCheck(man, root, outDir, *seed, *seconds)
	default:
		_, err := runSlate(man, root, outDir, "results.json", *seed, *seconds, *runs, *trace)
		return err
	}
}

// runOne is the contract entry point: one workload, one process, the
// driver's JSON object as the last line of standard output.
func runOne(name string, seed int64, seconds float64, traced bool, outDir, out, traceOut string) error {
	cfg := defaultRunConfig(seed, seconds, outDir)
	var res *runResult
	var err error
	if traced {
		res, err = measureTraced(name, cfg, func(budget time.Duration) (map[string]float64, error) {
			return runLayerDrivers(driverConfig{budget: budget, tmpRoot: outDir})
		}, traceOut)
	} else {
		res, err = measure(name, cfg)
	}
	if err != nil {
		return err
	}
	printRun(os.Stdout, res, traced)
	if out != "" {
		data, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Ops, res.OpsFailed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: output checks failed: %s", name, strings.Join(res.Failures, "; "))
	}
	return nil
}

// printRun prints every metric of a run by name, with its unit.
func printRun(w *os.File, res *runResult, traced bool) {
	fmt.Fprintf(w, "%s seed=%d ops=%d ops_failed=%d", res.Workload, res.Seed, res.Ops, res.OpsFailed)
	if !traced {
		fmt.Fprintf(w, " sim_digest=%s", res.SimDigest)
	}
	fmt.Fprintln(w)
	if d := res.OpMs; d != nil {
		fmt.Fprintf(w, "  op_ms over %d ops: min %.4g, p10 %.4g, p50 %.4g, p90 %.4g, max %.4g\n", d.N, d.Min, d.P10, d.P50, d.P90, d.Max)
	}
	names := endToEndUnits
	if traced {
		names = perLayerUnits
	}
	for _, u := range names {
		m, ok := res.Metrics[u.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", u.name, m.Value, m.Unit)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func printLayers(outDir string, seconds float64) error {
	values, err := runLayerDrivers(driverConfig{
		budget:  time.Duration(seconds * float64(time.Second) / driverLoops),
		tmpRoot: outDir,
	})
	if err != nil {
		return err
	}
	for _, u := range perLayerUnits {
		if v, ok := values[u.name]; ok {
			fmt.Printf("%-36s %14.6g %s\n", u.name, v, u.unit)
		}
	}
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Println("GOMAXPROCS=1: sim.shards_speedup, harness.batch_speedup and tracelake.scan_parallel_speedup are unverified")
	}
	return nil
}

// workloadResults is one workload's share of a results file.
type workloadResults struct {
	// Runs are the untraced runs, one per seed.
	Runs []*runResult `json:"runs"`
	// Layers is the traced run, if one was made.
	Layers *runResult `json:"layers,omitempty"`
}

// resultsFile is what a pass over all workloads writes to
// bench/out/results.json.
type resultsFile struct {
	Host      hostInfo                    `json:"host"`
	Workloads map[string]*workloadResults `json:"workloads"`
}

// runSlate runs every workload in a child process of its own, so that
// setup_s and peak_rss_mb of one workload owe nothing to another.
func runSlate(man *manifest, root, outDir, file string, seed int64, seconds float64, runs int, trace string) (*resultsFile, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	rf := &resultsFile{
		Host:      readHostInfo(root, seed, int(seconds)),
		Workloads: make(map[string]*workloadResults),
	}
	child := func(name string, seed int64, seconds float64, traced bool) (*runResult, error) {
		tmp := filepath.Join(outDir, fmt.Sprintf("run-%s-%d.json", name, os.Getpid()))
		defer os.Remove(tmp)
		args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", tmp}
		if traced {
			args = append(args, "-trace", "1", "-traceout", filepath.Join(outDir, "trace-"+name+".json"))
		}
		cmd := exec.Command(self, args...)
		cmd.Dir = root
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		// Pass the child's report through, minus its machine-readable
		// last line.
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if line := sc.Text(); !strings.HasPrefix(line, "{") {
				fmt.Println(line)
			}
		}
		runErr := cmd.Wait()
		data, err := os.ReadFile(tmp)
		if err != nil {
			if runErr != nil {
				return nil, fmt.Errorf("%s: %w", name, runErr)
			}
			return nil, err
		}
		var res runResult
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, err
		}
		return &res, nil
	}
	for _, w := range man.Workloads {
		wr := &workloadResults{}
		rf.Workloads[w.Name] = wr
		if trace != "1" {
			for r := 0; r < runs; r++ {
				res, err := child(w.Name, seed+int64(r), seconds, false)
				if err != nil {
					return nil, err
				}
				wr.Runs = append(wr.Runs, res)
			}
		}
		if trace != "0" {
			// The traced pass exists for shares and counts, not for
			// timing precision: half the seconds.
			res, err := child(w.Name, seed, seconds/2, true)
			if err != nil {
				return nil, err
			}
			wr.Layers = res
			printShares(w.Name, res)
		}
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, file)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %s\n", path)
	failed := 0
	for _, wr := range rf.Workloads {
		for _, r := range wr.Runs {
			failed += r.OpsFailed
		}
	}
	if failed > 0 {
		return rf, fmt.Errorf("%d ops failed", failed)
	}
	return rf, nil
}

// printShares prints where a traced op's time went, layer by layer.
func printShares(name string, res *runResult) {
	parts := []string{
		"sig.ms_per_op", "core.self_ms_per_op", "network.send_ms_per_op",
		"clock.ms_per_op", "harness.build_ms_per_op",
		"tracelake.scan_ms", "tracelake.scanrows_ms", "tracelake.replay_ms",
		"campaign.expand_ms", "campaign.cold_ms", "campaign.resume_loose_ms",
		"campaign.compact_ms", "campaign.resume_segment_ms",
		"sim.rest_ms_per_op",
	}
	total := 0.0
	for _, p := range parts {
		total += res.Metrics[p].Value
	}
	if total <= 0 {
		return
	}
	fmt.Printf("%s: share of the traced op (%.3g ms):", name, total)
	for _, p := range parts {
		if v := res.Metrics[p].Value; v != 0 {
			fmt.Printf(" %s %.0f%%", strings.TrimSuffix(strings.TrimSuffix(p, "_ms_per_op"), "_ms"), 100*v/total)
		}
	}
	fmt.Printf(" (trace overhead %.1f%%)\n", 100*res.Metrics["optsync.trace_overhead_frac"].Value)
}
