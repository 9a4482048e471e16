package harness

import (
	"context"
	"runtime"
	"sync"

	"optsync/internal/probe"
)

// RunBatch executes independent specs concurrently on a bounded pool of
// workers goroutines (GOMAXPROCS if workers <= 0) and returns the results
// in input order. Each run is single-threaded and deterministic in its
// spec, so the result slice is byte-identical for any worker count.
//
// onResult, if non-nil, is invoked serially (under the batch lock) as
// each run finishes, with the spec's index; completion order is not input
// order. The first error — a malformed spec or ctx cancellation — stops
// the dispatch of further runs and is returned alongside the partial
// results (unfinished entries are zero).
func RunBatch(ctx context.Context, specs []Spec, workers int, onResult func(index int, res Result)) ([]Result, error) {
	return RunBatchObserved(ctx, specs, workers, onResult, nil)
}

// BatchObserve attaches probes for one run of a batch: index is the
// run's position in the expanded spec slice. It is invoked on the worker
// goroutine executing that run, concurrently with other runs' attaches —
// a probe shared across runs must be wrapped with probe.Synchronized
// (the public API does this for WithProbe in batches).
type BatchObserve func(index int, spec Spec, bus *probe.Bus)

// RunBatchObserved is RunBatch with per-run observation attached.
func RunBatchObserved(ctx context.Context, specs []Spec, workers int, onResult func(index int, res Result), attach BatchObserve) ([]Result, error) {
	results := make([]Result, len(specs))
	if len(specs) == 0 {
		return results, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	next := make(chan int)
	//syncsim:allowlist detrand batch feeder goroutine hands out spec indices; each run itself stays single-threaded and spec-seeded
	go func() {
		defer close(next)
		for i := range specs {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//syncsim:allowlist detrand worker pool fans out whole independent runs; per-run determinism is untouched
		go func() {
			defer wg.Done()
			for i := range next {
				var observe Observe
				if attach != nil {
					i := i
					observe = func(spec Spec, bus *probe.Bus) { attach(i, spec, bus) }
				}
				res, err := RunObserved(ctx, specs[i], observe)
				if err != nil {
					fail(err)
					return
				}
				mu.Lock()
				results[i] = res
				if onResult != nil {
					onResult(i, res)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return results, firstErr
}
