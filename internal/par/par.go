// Package par is the one fan-out primitive behind the repository's
// sweeps: For runs a function over indices 0..n-1 on a fixed set of
// workers and joins them before it returns, so no worker outlives its
// sweep.
package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// For calls f(ctx, i) once for every i in [0, n) on min(workers, n)
// goroutines (at least one when n > 0). Indices are handed out in
// increasing order; hand-out stops once ctx is done or a call has
// returned an error, and the ctx passed to f is cancelled at that point.
// For returns after every goroutine has exited, with the first error
// an f returned or, failing that, ctx.Err().
//
// Results travel by index: a caller that collects them has f write only
// the i-th slot, so the output does not depend on scheduling.
func For(ctx context.Context, n, workers int, f func(ctx context.Context, i int) error) error {
	workers = min(max(workers, 1), n)
	inner, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next  atomic.Int64
		once  sync.Once
		first error
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for inner.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := f(inner, i); err != nil {
					once.Do(func() { first = err })
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
