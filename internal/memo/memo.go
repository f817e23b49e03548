// Package memo is the one bounded, sharded memo table behind the
// repository's caches of repeated inputs: the responder's signed-response
// cache and the serving tier's GET memo. Both exploit the paper's §2.2
// observation that a responder serves byte-identical responses for a
// whole update window.
//
// The table is split into 64 shards, each with its own mutex, so
// concurrent campaign workers and serving goroutines contend only when
// their keys land on one shard. Callers hash their input once and pass
// the hash, which selects the shard; the key then decides the entry.
// Where the key is only the hash, the caller passes the hash as the key
// too and confirms the input bytes stored in the value on a hit, so a hash
// collision costs a refill, never a wrong answer.
//
// A shard holds at most the budget its caller passes to Put. At the
// budget it drops about half its entries before inserting: Go's random
// map order picks them, so long-lived entries survive on average while
// dead ones drain, without tracking per-entry age on the hot path.
package memo

import "sync"

// shards is a power of two: the shard index is a hash mask.
const shards = 64

type shard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	_  [40]byte // pad past a cache line: neighbouring shard locks must not false-share
}

// Table is a sharded map bounded per shard. The zero value is ready to
// use; a shard allocates its map on its first Put. A Table must not be
// copied after first use.
type Table[K comparable, V any] struct {
	shards [shards]shard[K, V]
}

// shardFor folds the high hash bits into the shard index, so hashes that
// differ only above bit 6 still spread across shards.
func (t *Table[K, V]) shardFor(h uint64) *shard[K, V] {
	return &t.shards[(h^(h>>32))&(shards-1)]
}

// Get returns the value stored under k in the shard h selects.
//
//lint:allocfree
func (t *Table[K, V]) Get(h uint64, k K) (V, bool) {
	s := t.shardFor(h)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

// Put stores v under k in the shard h selects and returns how many
// entries it evicted. A shard holding budget entries is first trimmed to
// budget/2, so no shard ever holds more than budget.
func (t *Table[K, V]) Put(h uint64, k K, v V, budget int) (evicted int) {
	s := t.shardFor(h)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]V)
	}
	if len(s.m) >= budget {
		for old := range s.m {
			if len(s.m) <= budget/2 {
				break
			}
			delete(s.m, old)
			evicted++
		}
	}
	s.m[k] = v
	s.mu.Unlock()
	return evicted
}

// Len returns the number of entries across all shards.
func (t *Table[K, V]) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
