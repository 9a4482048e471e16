package campaign

import (
	"context"
	"errors"
	"fmt"

	"optsync/internal/analysis"
	"optsync/internal/harness"
)

// Options configures campaign execution.
type Options struct {
	// Store persists completed cells and answers repeats; nil runs the
	// campaign unpersisted (every cell executes).
	Store *Store
	// Workers bounds the worker pool (<= 0: the harness default).
	Workers int
	// Recompute ignores cached cells — they execute again; the store
	// keeps the (identical, content-addressed) results it already holds.
	Recompute bool
	// Progress, if non-nil, is invoked serially after every settled cell
	// (cache hit or executed run).
	Progress func(done, total int)
}

// Group aggregates the seed replicates (and any explicit "seed" axis
// values) of one non-seed parameter point.
type Group struct {
	// Key is the non-seed axis assignment ("f=2 dmax=0.01").
	Key string `json:"key"`
	// Cells is the number of runs aggregated.
	Cells int `json:"cells"`
	// PassRate is the fraction of runs with MaxSkew within bound.
	PassRate float64 `json:"pass_rate"`
	// SkewBound is the analytic agreement bound (constant per group: it
	// depends only on swept non-seed parameters).
	SkewBound float64 `json:"skew_bound"`
	// Summaries of the per-run observables.
	Skew         analysis.Summary `json:"skew"`
	Pulses       analysis.Summary `json:"pulses"`
	Rounds       analysis.Summary `json:"rounds"`
	MsgsPerRound analysis.Summary `json:"msgs_per_round"`
	// RunSkewP95 summarizes each run's *within-run* streaming 95th
	// percentile skew (Result.SkewP95, the bounded-memory collector
	// estimate), where Skew summarizes the runs' maxima — together they
	// separate steady-state behaviour from worst transients without
	// retaining any series.
	RunSkewP95 analysis.Summary `json:"run_skew_p95"`
	// Drops summarizes total losses per run: policy drops + offline
	// deliveries + suppressed links.
	Drops analysis.Summary `json:"drops"`
}

// Report is the outcome of a campaign run.
type Report struct {
	// Name echoes the campaign.
	Name string `json:"name,omitempty"`
	// Total, Executed, and CacheHits count cells; Total = Executed +
	// CacheHits. A resumed campaign reports the already-finished cells
	// as hits.
	Total     int `json:"total"`
	Executed  int `json:"executed"`
	CacheHits int `json:"cache_hits"`
	// Groups aggregates the cells, in first-occurrence cell order.
	Groups []Group `json:"groups"`

	// Cells and Results align index-for-index (omitted from JSON: the
	// aggregate is the campaign-level answer; per-cell streams go
	// through sinks).
	Cells   []Cell           `json:"-"`
	Results []harness.Result `json:"-"`
}

// counters tracks work across engine entry points.
type counters struct {
	executed, cached, settled, total int
	progress                         func(done, total int)
}

func (ct *counters) step() {
	ct.settled++
	if ct.progress != nil {
		ct.progress(ct.settled, ct.total)
	}
}

// runCells settles every cell — from the store when possible, by
// simulation otherwise — and returns results aligned with cells. Fresh
// results are persisted as they complete, so an interruption loses at
// most the in-flight runs.
func runCells(ctx context.Context, cells []Cell, opts Options, ct *counters) ([]harness.Result, error) {
	results := make([]harness.Result, len(cells))
	pending := make([]int, 0, len(cells))
	for i, cell := range cells {
		if opts.Store != nil && !opts.Recompute {
			res, ok, err := opts.Store.Get(cell.Key)
			if err != nil {
				return nil, err
			}
			if ok {
				// The key excludes the cosmetic name; restore this
				// campaign's label so cached and fresh rows render alike.
				res.Spec.Name = cell.Spec.Name
				results[i] = res
				ct.cached++
				ct.step()
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return results, ctx.Err()
	}

	specs := make([]harness.Spec, len(pending))
	for pi, i := range pending {
		specs[pi] = cells[i].Spec
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var storeErr error
	batch, err := harness.RunBatch(ctx, specs, opts.Workers, func(pi int, res harness.Result) {
		if opts.Store != nil && storeErr == nil {
			if perr := opts.Store.Put(cells[pending[pi]].Key, res); perr != nil {
				// A store that stopped accepting writes makes the rest of
				// the campaign unresumable work; stop and report it.
				storeErr = perr
				cancel()
				return
			}
		}
		ct.executed++
		ct.step()
	})
	if storeErr != nil && (err == nil || errors.Is(err, context.Canceled)) {
		err = storeErr
	}
	if err != nil {
		return nil, err
	}
	for pi, i := range pending {
		results[i] = batch[pi]
	}
	return results, nil
}

// Run expands the campaign, settles every cell (store hits skip
// execution), and aggregates the results per non-seed group. The report
// is deterministic in the campaign alone: reruns against the same store
// produce byte-identical aggregates with zero executions.
func Run(ctx context.Context, c Campaign, opts Options) (*Report, error) {
	cells, err := c.Cells()
	if err != nil {
		return nil, err
	}
	ct := &counters{total: len(cells), progress: opts.Progress}
	results, err := runCells(ctx, cells, opts, ct)
	if err != nil {
		return nil, err
	}
	return &Report{
		Name:      c.Name,
		Total:     len(cells),
		Executed:  ct.executed,
		CacheHits: ct.cached,
		Groups:    Aggregate(cells, results),
		Cells:     cells,
		Results:   results,
	}, nil
}

// Aggregate folds cell results into per-group summaries, preserving
// first-occurrence group order.
func Aggregate(cells []Cell, results []harness.Result) []Group {
	var order []string
	byKey := make(map[string][]int)
	for i, cell := range cells {
		if _, seen := byKey[cell.Group]; !seen {
			order = append(order, cell.Group)
		}
		byKey[cell.Group] = append(byKey[cell.Group], i)
	}
	groups := make([]Group, 0, len(order))
	for _, key := range order {
		idx := byKey[key]
		var (
			skews  = make([]float64, 0, len(idx))
			p95s   = make([]float64, 0, len(idx))
			pulses = make([]float64, 0, len(idx))
			rounds = make([]float64, 0, len(idx))
			msgs   = make([]float64, 0, len(idx))
			drops  = make([]float64, 0, len(idx))
			passes int
		)
		for _, i := range idx {
			r := results[i]
			skews = append(skews, r.MaxSkew)
			p95s = append(p95s, r.SkewP95)
			pulses = append(pulses, float64(r.PulseCount))
			rounds = append(rounds, float64(r.CompleteRounds))
			msgs = append(msgs, r.MsgsPerRound)
			drops = append(drops, float64(r.Dropped+r.DroppedOffline+r.DroppedLink))
			if r.WithinSkew {
				passes++
			}
		}
		groups = append(groups, Group{
			Key:          key,
			Cells:        len(idx),
			PassRate:     float64(passes) / float64(len(idx)),
			SkewBound:    results[idx[0]].SkewBound,
			Skew:         analysis.Summarize(skews),
			Pulses:       analysis.Summarize(pulses),
			Rounds:       analysis.Summarize(rounds),
			MsgsPerRound: analysis.Summarize(msgs),
			Drops:        analysis.Summarize(drops),
			RunSkewP95:   analysis.Summarize(p95s),
		})
	}
	return groups
}

// Summary renders the one-line execution accounting.
func (r *Report) Summary() string {
	return fmt.Sprintf("%d cells: %d executed, %d cached", r.Total, r.Executed, r.CacheHits)
}

// Table renders the per-group aggregates as a result table (Render for
// aligned text, CSV for machines).
func (r *Report) Table() *harness.Table {
	title := r.Name
	if title == "" {
		title = "campaign"
	}
	t := harness.NewTable(title,
		"group", "cells", "pass_rate",
		"skew_mean", "skew_std", "skew_p95", "skew_max", "skew_bound",
		"run_p95_mean",
		"pulses_mean", "rounds_mean", "msgs_per_round", "drops_mean")
	for _, g := range r.Groups {
		t.AddRow(
			g.Key, fmt.Sprint(g.Cells), harness.F(g.PassRate),
			harness.F(g.Skew.Mean), harness.F(g.Skew.Std),
			harness.F(g.Skew.P95), harness.F(g.Skew.Max), harness.F(g.SkewBound),
			harness.F(g.RunSkewP95.Mean),
			harness.F(g.Pulses.Mean), harness.F(g.Rounds.Mean),
			harness.F(g.MsgsPerRound.Mean), harness.F(g.Drops.Mean),
		)
	}
	t.AddNote(r.Summary())
	return t
}
