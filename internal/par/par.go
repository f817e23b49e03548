// Package par runs index-parallel loops on a bounded set of goroutines.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(i) for every i in [0, n). With workers <= 1 it runs the
// indices in order on the caller's goroutine; otherwise min(workers, n)
// goroutines take indices from a shared counter, so a slow index never
// holds up the others, and For returns once every call has. fn must be
// safe to call concurrently, and each index's result must not depend on
// which goroutine ran it or when.
func For(n, workers int, fn func(i int)) {
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
	wg.Add(workers)
	for k := 0; k < workers; k++ {
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
