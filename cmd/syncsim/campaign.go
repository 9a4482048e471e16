package main

import (
	"context"
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

// campaignFlags is the flag family campaign and serve share: the sweep,
// its store, its output format and the base spec.
type campaignFlags struct {
	name            *string
	seeds, samples  *int
	sampleSeed      *int64
	store           *string
	csvOut, jsonOut *bool
	axes            stringList
	spec            *specFlags
}

func addCampaignFlags(fs *flag.FlagSet, storeUsage string) *campaignFlags {
	cf := &campaignFlags{
		name:       fs.String("name", "", "campaign name (labels output rows)"),
		seeds:      fs.Int("seeds", 1, "seed replicates per grid point"),
		samples:    fs.Int("samples", 0, "random-sample this many grid points instead of the full grid (0 = full grid)"),
		sampleSeed: fs.Int64("sample-seed", 1, "seed for -samples point selection"),
		store:      fs.String("store", "", storeUsage),
		csvOut:     fs.Bool("csv", false, "emit CSV instead of aligned tables"),
		jsonOut:    fs.Bool("json", false, "emit JSON instead of aligned tables"),
		spec:       addSpecFlags(fs),
	}
	fs.Var(&cf.axes, "axis", "sweep axis field=v1,v2,... (repeatable; fields: "+
		strings.Join(optsync.AxisFields(), " ")+")")
	return cf
}

// campaign checks the parsed flags and assembles the campaign they
// describe; cmd names the subcommand in errors. Every cell is finished
// by the same derivation as the base spec, so it simulates what the
// equivalent single -run does.
func (cf *campaignFlags) campaign(cmd string) (optsync.Campaign, error) {
	if *cf.csvOut && *cf.jsonOut {
		return optsync.Campaign{}, fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if len(cf.axes) == 0 {
		return optsync.Campaign{}, fmt.Errorf("%s needs at least one -axis (fields: %s)",
			cmd, strings.Join(optsync.AxisFields(), " "))
	}
	base, err := cf.spec.spec()
	if err != nil {
		return optsync.Campaign{}, err
	}
	axes, err := parseAxes(cf.axes)
	if err != nil {
		return optsync.Campaign{}, err
	}
	swept := make(map[string]bool, len(axes))
	for _, ax := range axes {
		swept[ax.Field] = true
	}
	return optsync.Campaign{
		Name: *cf.name, Base: base, Axes: axes,
		Seeds: *cf.seeds, Samples: *cf.samples, SampleSeed: *cf.sampleSeed,
		Finish: func(s *optsync.Spec) error { cf.spec.derive(s, swept); return nil },
	}, nil
}

// runCampaignCmd implements "syncsim campaign": declarative sweeps with
// a persistent, resumable result store and adaptive threshold search.
// Aggregates go to stdout; the execution accounting line goes to stderr
// so machine-readable output stays pure.
func runCampaignCmd(args []string) (err error) {
	fs := flag.NewFlagSet("syncsim campaign", flag.ContinueOnError)
	var (
		resume   = fs.Bool("resume", true, "serve already-completed cells from the store; -resume=false recomputes every cell")
		search   = fs.String("search", "", "bisect this axis per group for the last passing value instead of running the full grid")
		cellsOut = fs.Bool("cells", false, "emit per-cell results instead of per-group aggregates")
		workers  = fs.Int("workers", 0, "worker pool size (0 = all cores)")

		cf = addCampaignFlags(fs, "result store directory (empty = run unpersisted)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := cf.campaign("campaign")
	if err != nil {
		return err
	}

	opts := []optsync.CampaignOption{optsync.WithCampaignWorkers(*workers)}
	if *cf.store != "" {
		store, oerr := optsync.OpenStore(*cf.store)
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
		return printReport(*cf.jsonOut, *cf.csvOut, report, report.Table())
	}

	if *cellsOut {
		var sink optsync.Sink = optsync.NewTableSink(os.Stdout)
		switch {
		case *cf.jsonOut:
			sink = optsync.NewJSONSink(os.Stdout)
		case *cf.csvOut:
			sink = optsync.NewCSVSink(os.Stdout)
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
	return printReport(*cf.jsonOut, *cf.csvOut, report, report.Table())
}
