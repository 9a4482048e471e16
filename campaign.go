package optsync

import (
	"context"

	"optsync/internal/campaign"
	"optsync/internal/harness"
)

// The campaign vocabulary, re-exported as aliases so values flow between
// this package and extension code without conversion.
type (
	// Campaign declares a parameter-space sweep: a base Spec plus Axes
	// combined as a grid (or a seeded random sample), replicated over
	// consecutive seeds.
	Campaign = campaign.Campaign
	// Axis sweeps one spec field over a list of textual values; see
	// AxisFields for the vocabulary and Ints/Floats/Strings for typed
	// construction.
	Axis = campaign.Axis
	// CampaignCell is one concrete keyed run of an expanded campaign.
	CampaignCell = campaign.Cell
	// CampaignReport carries execution accounting and per-group
	// aggregates; render with its Table method or marshal it as JSON.
	CampaignReport = campaign.Report
	// CampaignGroup aggregates the seed replicates of one non-seed
	// parameter point (mean/std/quantiles via the analysis package).
	CampaignGroup = campaign.Group
	// Store is the content-addressed on-disk result store keyed by
	// SpecKey; campaigns run against a store are resumable by
	// construction. Close it when the process that wrote it is done:
	// that seals what was appended (a store left unclosed loses nothing,
	// its next OpenStore re-indexes the unsealed segment).
	Store = campaign.Store
	// ThresholdSearch bisects one campaign axis per group to find the
	// last passing value without gridding the axis.
	ThresholdSearch = campaign.Search
	// SearchReport carries the per-group breaking points.
	SearchReport = campaign.SearchReport
	// SearchGroup is one group's breaking point bracket.
	SearchGroup = campaign.SearchGroup
)

// OpenStore opens or creates a campaign result store directory.
func OpenStore(dir string) (*Store, error) { return campaign.Open(dir) }

// SpecKey returns a spec's stable content address: the hex SHA-256 of
// its canonical form (defaults applied, presentation-only fields
// cleared). Two specs with equal keys describe the same computation.
func SpecKey(spec Spec) (string, error) { return harness.SpecKey(spec) }

// CanonicalSpec returns the canonical form a spec is keyed by.
func CanonicalSpec(spec Spec) Spec { return harness.CanonicalSpec(spec) }

// AxisFields returns the sweepable axis field names, sorted.
func AxisFields() []string { return campaign.Fields() }

// Ints renders integer axis values.
func Ints(vs ...int) []string { return campaign.Ints(vs...) }

// Floats renders numeric axis values with full round-trip precision.
func Floats(vs ...float64) []string { return campaign.Floats(vs...) }

// Strings copies string axis values, for symmetry with Ints and Floats.
func Strings(vs ...string) []string { return campaign.Strings(vs...) }

// CampaignOption configures RunCampaign and RunThresholdSearch. Campaign
// execution has its own option type: batch options like WithSeeds do not
// apply (replication is the campaign's Seeds field), and campaign
// options like stores make no sense on single runs.
type CampaignOption func(*campaignConfig)

type campaignConfig struct {
	opts  campaign.Options
	sinks []Sink
}

// WithStore persists completed cells in s and serves repeats from it; a
// campaign interrupted and re-run against the same store skips every
// already-completed cell.
func WithStore(s *Store) CampaignOption {
	return func(c *campaignConfig) { c.opts.Store = s }
}

// WithCampaignWorkers bounds the worker pool for cell execution (<= 0:
// the package default, see SetDefaultWorkers).
func WithCampaignWorkers(n int) CampaignOption {
	return func(c *campaignConfig) { c.opts.Workers = n }
}

// WithRecompute ignores cached cells: everything executes again. A cell
// the store already holds keeps its line — results are content-addressed,
// the fresh one is identical — and a cell it lacks is stored.
func WithRecompute() CampaignOption {
	return func(c *campaignConfig) { c.opts.Recompute = true }
}

// WithCampaignProgress installs a callback invoked serially after every
// settled cell (cache hit or executed run). It must not block.
func WithCampaignProgress(fn func(done, total int)) CampaignOption {
	return func(c *campaignConfig) { c.opts.Progress = fn }
}

// WithCampaignSink streams every cell Result to s in cell order after
// the campaign settles, then flushes. May be given multiple times.
func WithCampaignSink(s Sink) CampaignOption {
	return func(c *campaignConfig) { c.sinks = append(c.sinks, s) }
}

func newCampaignConfig(opts []CampaignOption) *campaignConfig {
	cfg := &campaignConfig{}
	for _, opt := range opts {
		opt(cfg)
	}
	return cfg
}

// drain streams the report's per-cell results to the registered sinks in
// cell order and flushes them, propagating the first error.
func (c *campaignConfig) drain(results []Result) error {
	var firstErr error
	for _, s := range c.sinks {
		for _, res := range results {
			if err := s.Write(res); err != nil {
				firstErr = err
				break
			}
		}
	}
	for _, s := range c.sinks {
		if err := s.Flush(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// RunCampaign expands the campaign, executes every cell a store has not
// already answered, and aggregates the results per non-seed group. The
// report is deterministic in the campaign alone, so re-running against
// the same store yields byte-identical aggregates with zero executions.
func RunCampaign(ctx context.Context, c Campaign, opts ...CampaignOption) (*CampaignReport, error) {
	cfg := newCampaignConfig(opts)
	report, err := campaign.Run(ctx, c, cfg.opts)
	if err != nil {
		return nil, err
	}
	return report, cfg.drain(report.Results)
}

// RunThresholdSearch bisects the campaign's search axis per group
// instead of running the full grid: under a monotone pass/fail predicate
// (axis values ordered easiest to hardest) it finds the same breaking
// point as the exhaustive grid in O(log k) evaluations per group.
// Evaluated cells share the campaign store, so searches and full
// campaigns reuse each other's work. Per-cell sinks receive nothing: a
// search settles only the cells bisection touches.
func RunThresholdSearch(ctx context.Context, c Campaign, s ThresholdSearch, opts ...CampaignOption) (*SearchReport, error) {
	cfg := newCampaignConfig(opts)
	return campaign.RunSearch(ctx, c, s, cfg.opts)
}
