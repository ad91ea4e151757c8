// Package par runs indexed work on a small bounded worker pool. It is the
// one pool under every Monte Carlo loop — a breakdown estimate's samples,
// a sweep's bandwidth points and an experiment batch — so they share one
// contract for order, cancellation and errors (DESIGN.md, "Concurrency,
// cancellation & progress architecture").
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Split divides a parallelism budget between n concurrent jobs and the
// pool inside each: outer jobs run at once, with inner workers apiece. A
// budget ≤ 0 means GOMAXPROCS; n < 1 counts as one job.
func Split(budget, n int) (outer, inner int) {
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	outer = max(min(budget, n), 1)
	return outer, max(budget/outer, 1)
}

// For calls fn(ctx, w, i) once for each i in [0, n) on at most workers
// workers (fewer than one counts as one); w names the calling worker
// (0 ≤ w < workers), so state kept per worker needs no lock. Indices are
// dispatched in order and ctx is checked before each dispatch, so a
// canceled run dispatches nothing more. The first error cancels the
// context the calls get. For waits for every call, then returns the
// lowest-index error not caused by cancellation, else ctx.Err(), else the
// lowest-index error. Every index below a failing one has run, so when
// calls fail deterministically the reported error does not depend on
// scheduling.
func For(ctx context.Context, workers, n int, fn func(ctx context.Context, w, i int) error) error {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	work := func(w int) {
		for runCtx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = fn(runCtx, w, i); errs[i] != nil {
				cancel()
			}
		}
	}
	// Worker 0 runs on the calling goroutine: a one-worker pool starts no
	// goroutine at all.
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()

	var first error
	for _, err := range errs {
		switch {
		case err == nil:
		case !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
			return err
		case first == nil:
			first = err
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return first
}
