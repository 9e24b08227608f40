package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// RunParallel executes task(0..n-1) on opt.Parallel workers (capped at
// n; GOMAXPROCS when negative; sequential when 0 or 1).
//
// Determinism contract: tasks must be independent — each derives any
// randomness from Options.Seed plus its own index and writes only to
// its own result slot. Under that contract the fill order cannot
// change the results, so parallel and sequential runs of an experiment
// produce byte-identical output. Callers assemble series and notes
// strictly after RunParallel returns, in index order.
func RunParallel(opt Options, n int, task func(i int)) {
	if n <= 0 {
		return
	}
	w := opt.Parallel
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			task(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}
