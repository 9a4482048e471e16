package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"optsync"
)

// runServeCmd implements "syncsim serve": a campaign coordinator that
// leases cells to stateless `syncsim work` processes over HTTP and
// aggregates their reports into the result store. SIGINT/SIGTERM shut
// it down gracefully — in-flight reports finish and are stored — and
// the store resumes a re-serve (or a plain `syncsim campaign -resume`)
// exactly where this run stopped.
func runServeCmd(args []string) error {
	fs := flag.NewFlagSet("syncsim serve", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:9190", "TCP listen address for the coordinator API")
		leaseTTL     = fs.Duration("lease-ttl", 0, "lease TTL; a worker silent this long forfeits its cells (0 = default 60s)")
		leaseBatch   = fs.Int("lease-batch", 0, "max cells per lease response (0 = default 64)")
		compactEvery = fs.Int("compact-every", 0, "seal the store (fsync, move the segment under segments/, republish index.json) every N settled cells (0 = only on exit)")
		noCompact    = fs.Bool("no-compact", false, "leave the store unsealed on exit (the next open re-indexes cells/; nothing is lost, nothing was fsynced)")
		linger       = fs.Duration("linger", 2*time.Second, "keep answering after completion so polling workers hear 'complete'")

		cf = addCampaignFlags(fs, "result store directory (required: the fabric's shared state)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := cf.campaign("serve")
	if err != nil {
		return err
	}
	if *cf.store == "" {
		return fmt.Errorf("serve needs -store: the store is how settled work survives restarts")
	}
	store, err := optsync.OpenStore(*cf.store)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report, err := optsync.ServeCampaign(ctx, c, store, optsync.FabricServeOptions{
		ServerOptions: optsync.FabricServerOptions{
			LeaseTTL:     *leaseTTL,
			LeaseBatch:   *leaseBatch,
			CompactEvery: *compactEvery,
		},
		Addr: *addr,
		Ready: func(bound string) {
			fmt.Fprintf(os.Stderr, "serving campaign on http://%s — attach workers with: syncsim work -coordinator http://%s\n",
				bound, bound)
		},
		Linger:        *linger,
		CompactOnExit: !*noCompact,
	})
	if errors.Is(err, context.Canceled) {
		// Graceful interrupt: the settled prefix is durable; tell the
		// operator how to continue rather than failing the process.
		fmt.Fprintf(os.Stderr, "interrupted: %d/%d cells settled in %s; re-run serve (or `syncsim campaign -store %s`) to finish\n",
			len(report.Cells), report.Total, *cf.store, *cf.store)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, report.Summary())
	return printReport(*cf.jsonOut, *cf.csvOut, report, report.Table())
}

// runWorkCmd implements "syncsim work": a stateless worker that pulls
// cell leases from a coordinator, simulates them locally, and reports
// results back with retry and backoff. It can be killed and restarted
// freely — the only state it holds is a lease the coordinator reclaims.
func runWorkCmd(args []string) error {
	fs := flag.NewFlagSet("syncsim work", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL (required), e.g. http://127.0.0.1:9190")
		name        = fs.String("name", "", "worker name in coordinator logs (default host-pid)")
		batch       = fs.Int("batch", 0, "cells per lease (0 = default 16)")
		workers     = fs.Int("workers", 0, "local simulation pool size (0 = all cores)")
		poll        = fs.Duration("poll", 0, "poll interval while other workers hold all pending cells (0 = default 200ms)")
		backoff     = fs.Duration("backoff", 0, "base RPC retry backoff, doubling with jitter (0 = default 100ms)")
		backoffMax  = fs.Duration("backoff-max", 0, "retry backoff ceiling (0 = default 5s)")
		attempts    = fs.Int("attempts", 0, "RPC attempts before giving the coordinator up (0 = default 8)")
		quiet       = fs.Bool("quiet", false, "suppress per-batch progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *coordinator == "" {
		return fmt.Errorf("work needs -coordinator URL (printed by `syncsim serve` on startup)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opts := optsync.FabricWorkerOptions{
		Name:         *name,
		Batch:        *batch,
		Workers:      *workers,
		PollInterval: *poll,
		BackoffBase:  *backoff,
		BackoffMax:   *backoffMax,
		MaxAttempts:  *attempts,
	}
	if !*quiet {
		opts.Progress = func(executed, done, total int) {
			fmt.Fprintf(os.Stderr, "worker: %d cells executed here; campaign %d/%d settled\n",
				executed, done, total)
		}
	}
	stats, err := optsync.RunWorker(ctx, *coordinator, opts)
	if errors.Is(err, context.Canceled) {
		// Graceful interrupt: any finished batch was already reported
		// under the grace window; unfinished leases simply expire.
		fmt.Fprintf(os.Stderr, "interrupted: %d cells executed, %d leases, %d retries\n",
			stats.Executed, stats.Leases, stats.Retries)
		return nil
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "campaign complete: %d cells executed here, %d leases, %d retries\n",
		stats.Executed, stats.Leases, stats.Retries)
	return nil
}
