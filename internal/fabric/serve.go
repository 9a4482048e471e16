package fabric

import (
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"optsync/internal/campaign"
)

// ServeOptions configures one Serve lifetime around the coordinator's
// ServerOptions.
type ServeOptions struct {
	ServerOptions

	// Addr is the TCP listen address ("" binds 127.0.0.1:0; Ready
	// reports what was bound).
	Addr string
	// Ready, if non-nil, is called once with the bound address before
	// serving begins.
	Ready func(addr string)
	// Linger keeps the coordinator answering after the last cell
	// settles (default 2s), so workers mid-poll learn Complete from a
	// normal lease response instead of a torn-down connection.
	Linger time.Duration
	// ShutdownGrace bounds how long graceful shutdown waits for
	// in-flight reports (default 10s).
	ShutdownGrace time.Duration
	// CompactOnExit seals and closes the store before returning — the
	// "flush" of a clean shutdown: every cell fsynced and indexed, no
	// file left under cells/. Without it the next Open re-indexes the
	// unsealed segment, which loses nothing but is not fsynced.
	CompactOnExit bool
}

// Serve runs a coordinator for the campaign until every cell settles or
// ctx is cancelled (SIGINT/SIGTERM arrive here via
// signal.NotifyContext), then shuts the listener down gracefully —
// in-flight reports finish and are stored — and returns the final
// report. On cancellation the report covers the settled prefix and the
// error is ctx's; the store already holds every settled cell, so
// re-serving (or a single-process -resume run) picks up exactly where
// this one stopped.
func Serve(ctx context.Context, c campaign.Campaign, store *campaign.Store, opts ServeOptions) (*campaign.Report, error) {
	srv, err := NewServer(c, store, opts.ServerOptions)
	if err != nil {
		return nil, err
	}
	if opts.Linger <= 0 {
		opts.Linger = 2 * time.Second
	}
	if opts.ShutdownGrace <= 0 {
		opts.ShutdownGrace = 10 * time.Second
	}
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if opts.Ready != nil {
		opts.Ready(ln.Addr().String())
	}
	hs := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var cause error
	select {
	case <-srv.Done():
		// Let late pollers hear "complete" before the listener dies.
		select {
		case <-time.After(opts.Linger):
		case <-ctx.Done():
		}
	case <-ctx.Done():
		cause = ctx.Err()
	case err := <-serveErr:
		return nil, err
	}

	shctx, cancel := context.WithTimeout(context.Background(), opts.ShutdownGrace)
	defer cancel()
	if serr := hs.Shutdown(shctx); serr != nil && cause == nil && !errors.Is(serr, http.ErrServerClosed) {
		cause = serr
	}
	if opts.CompactOnExit {
		if cerr := store.Close(); cerr != nil && cause == nil {
			cause = cerr
		}
	}
	return srv.Report(), cause
}
