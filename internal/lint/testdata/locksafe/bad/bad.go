// Package bad exercises the locksafe analyzer's positive findings.
package bad

import "sync"

// Shard is a mutex-guarded cache shard feeding a results channel.
type Shard struct {
	mu   sync.Mutex
	rwmu sync.RWMutex
	out  chan int
	in   chan int
	data map[int]int
}

// Publish sends on a channel while holding the shard lock: if the
// receiver is blocked on the same lock, both goroutines deadlock.
func (s *Shard) Publish(k int) {
	s.mu.Lock()
	s.out <- s.data[k] // want "channel send while holding s.mu"
	s.mu.Unlock()
}

// Fill receives under a deferred unlock: the lock is held for the whole
// blocking wait.
func (s *Shard) Fill(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[k] = <-s.in // want "channel receive while holding s.mu"
}

// Wait selects under a read lock.
func (s *Shard) Wait() int {
	s.rwmu.RLock()
	defer s.rwmu.RUnlock()
	select { // want "select while holding s.rwmu"
	case v := <-s.in:
		return v
	default:
		return 0
	}
}

// Drain ranges over a channel while locked.
func (s *Shard) Drain() int {
	total := 0
	s.mu.Lock()
	for v := range s.in { // want "range over a channel while holding s.mu"
		total += v
	}
	s.mu.Unlock()
	return total
}

// TakeIf receives in an if's Init under the lock.
func (s *Shard) TakeIf() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := <-s.in; v > 0 { // want "channel receive while holding s.mu"
		return v
	}
	return 0
}

// TakeIfCond receives in an if's Cond under the lock.
func (s *Shard) TakeIfCond() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if <-s.in > 0 { // want "channel receive while holding s.mu"
		return true
	}
	return false
}

// CountFrom receives in a for's Init under the lock.
func (s *Shard) CountFrom() int {
	n := 0
	s.mu.Lock()
	for x := <-s.in; x > 0; x-- { // want "channel receive while holding s.mu"
		n++
	}
	s.mu.Unlock()
	return n
}

// SkipZeros receives in a for's Cond under the lock.
func (s *Shard) SkipZeros() int {
	n := 0
	s.mu.Lock()
	for <-s.in != 0 { // want "channel receive while holding s.mu"
		n++
	}
	s.mu.Unlock()
	return n
}

// Pump receives in a for's Post under the lock.
func (s *Shard) Pump() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; ; <-s.in { // want "channel receive while holding s.mu"
		if len(s.data) > 0 {
			return
		}
	}
}
