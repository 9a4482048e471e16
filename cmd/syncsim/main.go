// Command syncsim runs the reproduction experiments for Srikanth & Toueg,
// "Optimal Clock Synchronization" (PODC 1985), through the public optsync
// API.
//
// Usage:
//
//	syncsim -list             list experiments
//	syncsim -exp T1           run one experiment and print its tables
//	syncsim -exp all          run the full suite (default)
//	syncsim -exp T1 -csv      emit CSV instead of aligned tables
//	syncsim -exp T1 -json     emit JSON instead of aligned tables
//	syncsim -exp all -workers 8   fan experiment runs out over 8 workers
//
// A custom single run is also available:
//
//	syncsim -run -algo st-auth -n 7 -f 3 -rho 1e-4 -dmax 0.01 \
//	        -period 1 -horizon 30 -attack silent -seed 1 -json
//
// Custom runs take a network topology and scheduled partitions:
//
//	syncsim -run -n 16 -topology wan:4
//	syncsim -run -n 7 -horizon 35 -partition 10:20:3
//
// The campaign subcommand expands declarative parameter-space sweeps
// over a persistent, content-addressed result store (see campaign.go):
//
//	syncsim campaign -axis faulty=0,1,2 -axis dmax=0.008,0.01 \
//	        -seeds 5 -store ./results
//	syncsim campaign -axis dmax=0.004,0.008,0.012,0.016 \
//	        -store ./results -search dmax
//
// Campaigns also run distributed: the serve subcommand starts a
// coordinator that leases cells to stateless work processes over HTTP
// and stores their reports in the shared result store (see fabric.go).
// Workers can be killed and restarted freely; the coordinator reclaims
// expired leases, and SIGINT on either side shuts down gracefully with
// all settled cells durable:
//
//	syncsim serve -axis faulty=0,1,2 -seeds 5 -store ./results
//	syncsim work -coordinator http://127.0.0.1:9190
//	syncsim work -coordinator http://127.0.0.1:9190   # as many as you like
//
// Custom runs can record their full typed event trace (messages, pulses,
// resyncs, boots, partition markers, skew samples); the trace subcommand
// replays a recorded trace through the streaming collectors and prints
// aggregates identical to the live run's, and converts between the two
// encodings — JSONL and the columnar trace lake — with -out (see
// trace.go):
//
//	syncsim -run -n 7 -horizon 30 -trace run.jsonl
//	syncsim trace -in run.jsonl
//	syncsim trace -in run.jsonl -json
//	syncsim trace -in run.jsonl -out run.lake
//
// The query subcommand runs typed, node-, time-, and round-bounded
// queries against a lake without replaying the whole stream — the footer
// index prunes non-matching column blocks (see query.go):
//
//	syncsim -run -n 7 -horizon 30 -trace run.lake
//	syncsim query -in run.lake -type skew_sample -from 2.5 -to 9.0
//	syncsim query -in run.lake -node 3 -csv
//	syncsim query -in run.lake -type pulse -stats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"optsync"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "syncsim:", err)
		os.Exit(1)
	}
}

// algoUsage and attackUsage derive the flag help from the registry, so
// protocols and attacks registered by linked-in packages show up too.
func algoUsage() string {
	names := make([]string, 0, 8)
	for _, a := range optsync.Protocols() {
		names = append(names, string(a))
	}
	return "algorithm: " + strings.Join(names, " | ")
}

func attackUsage() string {
	names := make([]string, 0, 8)
	for _, a := range optsync.Attacks() {
		names = append(names, string(a))
	}
	return "attack: " + strings.Join(names, "|")
}

func topologyUsage() string {
	return "network topology: " + strings.Join(optsync.Topologies(), "[:arg] | ") +
		"[:arg] (e.g. wan:4 = 4 WAN regions, ring:6 = degree-6 circulant)"
}

// parsePartitions parses repeated -partition values "at:heal:leftSize"
// (heal 0 = never heals) through the shared window parser.
func parsePartitions(specs []string) ([]optsync.Partition, error) {
	out := make([]optsync.Partition, 0, len(specs))
	for _, s := range specs {
		p, err := optsync.ParsePartition(s)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// stringList collects a repeatable flag.
type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

// specFlags registers the base-spec flag family shared by custom runs
// and campaigns on a flag set.
type specFlags struct {
	algo            *string
	n, f, faulty    *int
	rho             *float64
	dmin, dmax      *float64
	period, horizon *float64
	attack          *string
	seed            *int64
	topology        *string
	shards          *int
	partitions      stringList
}

func addSpecFlags(fs *flag.FlagSet) *specFlags {
	sf := &specFlags{
		algo:     fs.String("algo", "st-auth", algoUsage()),
		n:        fs.Int("n", 7, "number of processes"),
		f:        fs.Int("f", -1, "fault bound (-1 = maximum for the algorithm)"),
		faulty:   fs.Int("faulty", -1, "actual faulty count (-1 = same as -f)"),
		rho:      fs.Float64("rho", 1e-4, "hardware drift bound"),
		dmin:     fs.Float64("dmin", 0.002, "min message delay (s)"),
		dmax:     fs.Float64("dmax", 0.01, "max message delay (s)"),
		period:   fs.Float64("period", 1, "resynchronization period P (s)"),
		horizon:  fs.Float64("horizon", 30, "simulated duration (s)"),
		attack:   fs.String("attack", "silent", attackUsage()),
		seed:     fs.Int64("seed", 1, "simulation seed"),
		topology: fs.String("topology", "", topologyUsage()),
		shards: fs.Int("shards", 0,
			"parallel engine shard workers (0 = auto: serial below n=1024, else up to min(GOMAXPROCS,8); 1 = force serial; results are bit-identical at every count)"),
	}
	fs.Var(&sf.partitions, "partition",
		"scheduled partition window at:heal:leftSize (repeatable; heal 0 = never)")
	return sf
}

// spec assembles and validates the flag values into a runnable Spec.
func (sf *specFlags) spec() (optsync.Spec, error) {
	variant := optsync.Auth
	if *sf.algo != string(optsync.AlgoAuth) {
		variant = optsync.Primitive
	}
	f := *sf.f
	if f < 0 {
		f = variant.MaxFaults(*sf.n)
	}
	faulty := *sf.faulty
	if faulty < 0 {
		faulty = f
	}
	p := optsync.Params{
		N: *sf.n, F: f, Variant: variant,
		Rho:  optsync.Rho(*sf.rho),
		DMin: *sf.dmin, DMax: *sf.dmax,
		Period:      *sf.period,
		InitialSkew: *sf.dmax / 2,
	}.WithDefaults()
	if err := p.Validate(); err != nil {
		return optsync.Spec{}, err
	}
	windows, err := parsePartitions(sf.partitions)
	if err != nil {
		return optsync.Spec{}, err
	}
	if *sf.shards < 0 {
		return optsync.Spec{}, fmt.Errorf("-shards %d invalid (0 auto-picks, 1 forces serial, k>1 runs k shard workers)", *sf.shards)
	}
	return optsync.Spec{
		Algo: optsync.Algorithm(*sf.algo), Params: p,
		FaultyCount: faulty, Attack: optsync.Attack(*sf.attack),
		Horizon: *sf.horizon, Seed: *sf.seed,
		Topology: *sf.topology, Partitions: windows,
		Shards: *sf.shards,
	}, nil
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "campaign":
			return runCampaignCmd(args[1:])
		case "trace":
			return runTraceCmd(args[1:])
		case "query":
			return runQueryCmd(args[1:])
		case "serve":
			return runServeCmd(args[1:])
		case "work":
			return runWorkCmd(args[1:])
		}
	}

	fs := flag.NewFlagSet("syncsim", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "list experiments and exit")
		exp     = fs.String("exp", "all", "experiment id (T1..T8, F1..F7, A1..A3, W1..W3, or 'all')")
		csvOut  = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut = fs.Bool("json", false, "emit JSON instead of aligned tables")
		workers = fs.Int("workers", 0, "worker pool size for experiment batches (0 = all cores)")
		custom  = fs.Bool("run", false, "run a single custom simulation instead of an experiment")
		rtStats = fs.Bool("runtime-stats", false, "print the simulator's own counters for the run (payload arena slots, event-queue chunks, signature verifications asked and computed) to stderr (custom runs)")
		trace   = fs.String("trace", "", "record the run's event trace to this file (custom runs; .lake = queryable columnar lake, else JSONL; replay with `syncsim trace -in FILE`, query lakes with `syncsim query`)")

		sf = addSpecFlags(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvOut && *jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if *list {
		for _, s := range optsync.Scenarios() {
			fmt.Printf("%-4s %s\n", s.ID, s.Title)
		}
		return nil
	}

	if *custom {
		spec, err := sf.spec()
		if err != nil {
			return err
		}
		res, err := runCustom(spec, *jsonOut, *csvOut, *trace)
		if err == nil && *rtStats {
			printRuntimeStats(os.Stderr, res.Runtime)
		}
		return err
	}
	if *trace != "" || *rtStats {
		return fmt.Errorf("-trace and -runtime-stats apply to custom runs (-run)")
	}
	if *sf.topology != "" || len(sf.partitions) > 0 {
		return fmt.Errorf("-topology and -partition apply to custom runs (-run) and campaigns")
	}

	var scenarios []optsync.Scenario
	if *exp == "all" {
		scenarios = optsync.Scenarios()
	} else {
		s, ok := optsync.FindScenario(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		scenarios = []optsync.Scenario{s}
	}
	enc := json.NewEncoder(os.Stdout)
	for _, s := range scenarios {
		tables, err := s.Run(context.Background(), optsync.WithCampaignWorkers(*workers))
		if err != nil {
			return fmt.Errorf("experiment %s: %w", s.ID, err)
		}
		for _, t := range tables {
			switch {
			case *jsonOut:
				if err := enc.Encode(t); err != nil {
					return err
				}
			case *csvOut:
				fmt.Print(t.CSV())
			default:
				fmt.Println(t.Render())
			}
		}
	}
	return nil
}

// printRuntimeStats renders Result.Runtime, the one part of a result no
// sink writes.
func printRuntimeStats(w io.Writer, rs optsync.RuntimeStats) {
	a, l, g := rs.Arena, rs.Ladder, rs.Sig
	fmt.Fprintf(w, "runtime: arena slots %d (high-water %d), references %d, mailbox copies %d, deaf %d\n",
		a.Slots, a.SlotsHigh, a.Refs, a.Mailbox, a.Deaf)
	fmt.Fprintf(w, "runtime: ladder chunks %d (free-list high-water %d), grow-copies %d, spills %d (un-seals %d), re-anchors %d, shifted %d, timers %d (tombstones %d), seals %d (%d events)\n",
		l.Chunks, l.FreeHigh, l.GrowCopies, l.Spills, l.Unseals, l.Reanchors, l.Shifted, l.Timers, l.Tombstones, l.Seals, l.Sealed)
	fmt.Fprintf(w, "runtime: sig verifications asked %d, computed %d, rejected %d\n",
		g.Asked, g.Computed, g.Rejected)
}

func runCustom(spec optsync.Spec, jsonOut, csvOut bool, tracePath string) (res optsync.Result, err error) {
	var opts []optsync.Option
	if tracePath != "" {
		sink, f, serr := traceSinkFor(tracePath)
		if serr != nil {
			return optsync.Result{}, serr
		}
		// Run flushes the sink; the trace is whole only once the file has
		// closed too (ENOSPC, NFS write-back), so a close error fails a run
		// that otherwise succeeded.
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		opts = append(opts, traceOption(sink))
	}

	// Machine-readable modes stream through the structured sinks.
	if jsonOut || csvOut {
		var sink optsync.Sink = optsync.NewJSONSink(os.Stdout)
		if csvOut {
			sink = optsync.NewCSVSink(os.Stdout)
		}
		return optsync.Run(context.Background(), spec, append(opts, optsync.WithSink(sink))...)
	}

	res, err = optsync.Run(context.Background(), spec, opts...)
	if err != nil {
		return res, err
	}
	p := spec.Params
	title := fmt.Sprintf("custom run: %s n=%d f=%d faulty=%d attack=%s",
		spec.Algo, p.N, p.F, spec.FaultyCount, spec.Attack)
	if spec.Topology != "" {
		title += " topology=" + spec.Topology
	}
	if len(spec.Partitions) > 0 {
		title += fmt.Sprintf(" partitions=%d", len(spec.Partitions))
	}
	t := optsync.NewTable(title, "metric", "measured", "bound", "status")
	t.AddRow("max skew (s)", optsync.F(res.MaxSkew), optsync.F(res.SkewBound), optsync.FmtBool(res.WithinSkew))
	t.AddRow("max spread (s)", optsync.F(res.MaxSpread), optsync.F(res.SpreadBound),
		optsync.FmtBool(res.MaxSpread <= res.SpreadBound+1e-9))
	t.AddRow("min period (s)", optsync.F(res.MinPeriod), optsync.F(res.PminBound),
		optsync.FmtBool(res.MinPeriod >= res.PminBound-1e-9))
	t.AddRow("max period (s)", optsync.F(res.MaxPeriod), optsync.F(res.PmaxBound),
		optsync.FmtBool(res.MaxPeriod <= res.PmaxBound+1e-9))
	t.AddRow("rate lo", optsync.F(res.EnvLo), optsync.F(res.EnvBoundLo),
		optsync.FmtBool(res.EnvLo >= res.EnvBoundLo))
	t.AddRow("rate hi", optsync.F(res.EnvHi), optsync.F(res.EnvBoundHi),
		optsync.FmtBool(res.EnvHi <= res.EnvBoundHi))
	t.AddRow("complete rounds", fmt.Sprint(res.CompleteRounds), "-", "ok")
	t.AddRow("msgs/round", optsync.F(res.MsgsPerRound), fmt.Sprint(p.MessagesPerRound()), "ok")
	fmt.Println(t.Render())
	return res, nil
}
