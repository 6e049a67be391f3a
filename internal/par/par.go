// Package par holds the one index-claim worker pool the harness sweeps, the
// serve cost measurement and the dataset loader share.
package par

import (
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0..n-1) across min(workers, n) goroutines, inline when that
// is one or fewer. Each index is claimed exactly once (atomic next-index) and
// callers write to disjoint pre-sized slots — the deterministic fan-in idiom:
// no append, no channels, no further synchronization needed.
func ForEach(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
