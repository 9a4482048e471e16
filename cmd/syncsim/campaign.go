package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"optsync"
)

// parseAxes parses repeated -axis values "field=v1,v2,v3".
func parseAxes(specs []string) ([]optsync.Axis, error) {
	out := make([]optsync.Axis, 0, len(specs))
	for _, s := range specs {
		field, list, ok := strings.Cut(s, "=")
		if !ok || field == "" {
			return nil, fmt.Errorf("axis %q: want field=v1,v2,... (fields: %s)",
				s, strings.Join(optsync.AxisFields(), " "))
		}
		out = append(out, optsync.Axis{Field: field, Values: strings.Split(list, ",")})
	}
	return out, nil
}

// deriveSpecDefaults builds the per-cell finisher that keeps campaign
// cells consistent with the equivalent single -run invocation. The base
// spec bakes the CLI's derived conventions against the *base* flags
// (alpha and initial skew from -dmax, the fault bound from -n and
// -algo); when an axis sweeps one of the inputs, the stale derivations
// must be recomputed per cell — silently simulating `-axis dmax=0.018`
// with the alpha of dmax 0.01 is exactly the bug this prevents. Values
// the user pinned explicitly (a -f flag, a swept axis) are left alone.
func deriveSpecDefaults(fs *flag.FlagSet, axes []optsync.Axis) func(*optsync.Spec) error {
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	swept := make(map[string]bool, len(axes))
	for _, ax := range axes {
		swept[ax.Field] = true
	}
	return func(s *optsync.Spec) error {
		variant := optsync.Auth
		if s.Algo != optsync.AlgoAuth {
			variant = optsync.Primitive
		}
		s.Params.Variant = variant
		if !explicit["f"] && !swept["f"] {
			s.Params.F = variant.MaxFaults(s.Params.N)
		}
		if !explicit["faulty"] && !swept["faulty"] {
			s.FaultyCount = s.Params.F
		}
		if !swept["initial-skew"] {
			s.Params.InitialSkew = s.Params.DMax / 2
		}
		// Always re-derive alpha ((1+rho)*dmax): the CLI has no -alpha
		// flag, so the baked base value is never a user choice.
		s.Params.Alpha = 0
		return nil
	}
}

// runCampaignCmd implements "syncsim campaign": declarative sweeps with
// a persistent, resumable result store and adaptive threshold search.
// Aggregates go to stdout; the execution accounting line goes to stderr
// so machine-readable output stays pure.
func runCampaignCmd(args []string) (err error) {
	fs := flag.NewFlagSet("syncsim campaign", flag.ContinueOnError)
	var (
		axes stringList

		name       = fs.String("name", "", "campaign name (labels output rows)")
		seeds      = fs.Int("seeds", 1, "seed replicates per grid point")
		samples    = fs.Int("samples", 0, "random-sample this many grid points instead of the full grid (0 = full grid)")
		sampleSeed = fs.Int64("sample-seed", 1, "seed for -samples point selection")
		storeDir   = fs.String("store", "", "result store directory (empty = run unpersisted)")
		resume     = fs.Bool("resume", true, "serve already-completed cells from the store; -resume=false recomputes every cell")
		search     = fs.String("search", "", "bisect this axis per group for the last passing value instead of running the full grid")
		cellsOut   = fs.Bool("cells", false, "emit per-cell results instead of per-group aggregates")
		csvOut     = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		jsonOut    = fs.Bool("json", false, "emit JSON instead of aligned tables")
		workers    = fs.Int("workers", 0, "worker pool size (0 = all cores)")

		sf = addSpecFlags(fs)
	)
	fs.Var(&axes, "axis", "sweep axis field=v1,v2,... (repeatable; fields: "+
		strings.Join(optsync.AxisFields(), " ")+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *csvOut && *jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if len(axes) == 0 {
		return fmt.Errorf("campaign needs at least one -axis (fields: %s)",
			strings.Join(optsync.AxisFields(), " "))
	}

	base, err := sf.spec()
	if err != nil {
		return err
	}
	parsedAxes, err := parseAxes(axes)
	if err != nil {
		return err
	}
	c := optsync.Campaign{
		Name:    *name,
		Base:    base,
		Axes:    parsedAxes,
		Seeds:   *seeds,
		Samples: *samples, SampleSeed: *sampleSeed,
		Finish: deriveSpecDefaults(fs, parsedAxes),
	}

	opts := []optsync.CampaignOption{optsync.WithCampaignWorkers(*workers)}
	if *storeDir != "" {
		store, oerr := optsync.OpenStore(*storeDir)
		if oerr != nil {
			return oerr
		}
		// Seal on the way out, failed run or not: what settled stays
		// settled, and a failed seal must not read as success.
		defer func() {
			if cerr := store.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		opts = append(opts, optsync.WithStore(store))
	}
	if !*resume {
		opts = append(opts, optsync.WithRecompute())
	}

	if *search != "" {
		if *cellsOut {
			return fmt.Errorf("-cells applies to full campaigns, not -search")
		}
		report, err := optsync.RunThresholdSearch(context.Background(), c,
			optsync.ThresholdSearch{Axis: *search}, opts...)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d executed, %d cached (exhaustive grid: %d cells)\n",
			report.Executed, report.CacheHits, report.ExhaustiveCells)
		switch {
		case *jsonOut:
			return json.NewEncoder(os.Stdout).Encode(report)
		case *csvOut:
			_, err := fmt.Print(report.Table().CSV())
			return err
		default:
			_, err := fmt.Println(report.Table().Render())
			return err
		}
	}

	if *cellsOut {
		var sink optsync.Sink
		switch {
		case *jsonOut:
			sink = optsync.NewJSONSink(os.Stdout)
		case *csvOut:
			sink = optsync.NewCSVSink(os.Stdout)
		default:
			sink = optsync.NewTableSink(os.Stdout)
		}
		opts = append(opts, optsync.WithCampaignSink(sink))
	}
	report, err := optsync.RunCampaign(context.Background(), c, opts...)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, report.Summary())
	if *cellsOut {
		return nil // the sink already streamed the cells
	}
	switch {
	case *jsonOut:
		return json.NewEncoder(os.Stdout).Encode(report)
	case *csvOut:
		_, err := fmt.Print(report.Table().CSV())
		return err
	default:
		_, err := fmt.Println(report.Table().Render())
		return err
	}
}
