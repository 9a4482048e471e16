// Campaign: the declarative-sweep tour. Describes a (faulty x dmax)
// parameter space once, runs it through a persistent content-addressed
// store (kill the process and rerun — finished cells are never
// recomputed), prints the per-group mean/std/quantile aggregates, then
// bisects the dmax axis to find the widest delay bound that still meets
// the paper's agreement bound — without gridding the axis.
//
//	go run ./examples/campaign              # first pass executes
//	go run ./examples/campaign              # second pass is 100% cache hits
//	rm -r campaign-store                    # start fresh
package main

import (
	"context"
	"fmt"
	"os"

	"optsync"
)

func main() {
	p := optsync.Params{
		N: 7, F: 3, Variant: optsync.Auth,
		Rho:  optsync.Rho(1e-4),
		DMin: 0.002, DMax: 0.010,
		Period:      1.0,
		InitialSkew: 0.005,
	}.WithDefaults()

	c := optsync.Campaign{
		Name: "resilience-vs-delay",
		Base: optsync.Spec{
			Algo: optsync.AlgoAuth, Params: p,
			Attack: optsync.AttackSilent, Horizon: 12, Seed: 1,
		},
		Axes: []optsync.Axis{
			{Field: "faulty", Values: optsync.Ints(0, 1, 2, 3)},
			{Field: "dmax", Values: optsync.Floats(0.006, 0.010, 0.014)},
		},
		Seeds: 3, // every cell averaged over 3 independent seeds
	}

	store, err := optsync.OpenStore("campaign-store")
	if err != nil {
		panic(err)
	}
	report, err := optsync.RunCampaign(context.Background(), c,
		optsync.WithStore(store),
		optsync.WithCampaignProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, total)
		}))
	if err != nil {
		panic(err)
	}
	fmt.Fprintln(os.Stderr)
	fmt.Println(report.Table().Render())

	// Adaptive threshold search: how wide can dmax grow before the skew
	// bound breaks? Bisection settles O(log k) cells per group instead
	// of k, and shares the store with the campaign above.
	search, err := optsync.RunThresholdSearch(context.Background(), optsync.Campaign{
		Name: "dmax-threshold",
		Base: c.Base,
		Axes: []optsync.Axis{
			{Field: "dmax", Values: optsync.Floats(
				0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016, 0.018)},
		},
		Seeds: 2,
	}, optsync.ThresholdSearch{Axis: "dmax"}, optsync.WithStore(store))
	if err != nil {
		panic(err)
	}
	fmt.Println(search.Table().Render())

	// Seal what this run appended: fsynced, indexed, three files on disk.
	// (A store left unclosed loses nothing; its next open re-indexes it.)
	if err := store.Close(); err != nil {
		panic(err)
	}
}
