package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForZero(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 4} {
		For(0, workers, func(int) { t.Errorf("workers=%d: fn called for n=0", workers) })
	}
}

// goid identifies the calling goroutine by its stack header line.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	for i, c := range buf {
		if c == '[' {
			return string(buf[:i])
		}
	}
	return string(buf)
}

// TestForSerial: workers <= 1 runs every index in order on the caller's
// goroutine.
func TestForSerial(t *testing.T) {
	caller := goid()
	for _, workers := range []int{-3, 0, 1} {
		var got []int
		For(5, workers, func(i int) {
			if g := goid(); g != caller {
				t.Errorf("workers=%d: index %d ran on %q, not the caller %q", workers, i, g, caller)
			}
			got = append(got, i)
		})
		if len(got) != 5 {
			t.Fatalf("workers=%d: ran %v", workers, got)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: order %v", workers, got)
			}
		}
	}
}

// TestForEachIndexOnce: with more workers than indices, and with fewer,
// every index runs exactly once.
func TestForEachIndexOnce(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{3, 16}, {1000, 4}, {1, 2}} {
		counts := make([]atomic.Int32, c.n)
		For(c.n, c.workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("n=%d workers=%d: index %d ran %d times", c.n, c.workers, i, got)
			}
		}
	}
}

// TestForBoundsConcurrency: never more than workers calls run at once,
// and the bound is reached (every worker holds an index until all have
// started).
func TestForBoundsConcurrency(t *testing.T) {
	const n, workers = 64, 3
	var running, peak atomic.Int32
	var started sync.WaitGroup
	started.Add(workers)
	var first atomic.Int32
	For(n, workers, func(int) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if first.Add(1) <= workers {
			// Hold the first workers indices until all of them run, so
			// the peak must reach the bound.
			started.Done()
			started.Wait()
		}
		running.Add(-1)
	})
	if p := peak.Load(); p != workers {
		t.Fatalf("peak concurrency %d, want exactly %d", p, workers)
	}
}
