// Package pool is the engine's one indexed worker pool: the view refresh,
// a restore's record decoding and index builds, the value-index segment
// builds and the label-propagation sweeps all fan out through Run.
package pool

import (
	"sync"
	"sync/atomic"
)

// Run runs fn(0), …, fn(n-1) across at most workers goroutines and returns
// the error of the lowest failing index, matching the error a serial loop
// would surface. Every index runs to completion at every worker count —
// including workers <= 1, which runs the indexes in order on the calling
// goroutine — so both the collected results and fn's side effects (e.g.
// which views a failing refresh rematerialised) are identical at any
// parallelism, not just on the success path.
//
// Callers pass a closure that writes its result into a pre-sized slice at
// position i, which is race-free because each index is claimed exactly once.
func Run(n, workers int, fn func(i int) error) error {
	workers = min(workers, n)
	if workers <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
