package par

import (
	"sync/atomic"
	"testing"
)

// TestForEachClaimsEveryIndexOnce covers the inline path (workers ≤ 1), more
// workers than items, and a real fan-out: every index runs exactly once.
func TestForEachClaimsEveryIndexOnce(t *testing.T) {
	for _, c := range []struct{ workers, n int }{{0, 5}, {1, 5}, {8, 3}, {4, 1000}, {4, 0}} {
		hits := make([]atomic.Int32, c.n)
		ForEach(c.workers, c.n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d n=%d: index %d ran %d times", c.workers, c.n, i, got)
			}
		}
	}
}
