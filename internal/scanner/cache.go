package scanner

import "sync"

// Sharded client caches. The campaign engine runs dozens of concurrent
// workers through one Client, and with a single mutex over its
// memoization maps every scan serialized on the same lock. The two caches
// (parsed responses and signature verdicts) are instead split across a
// power-of-two number of shards selected by the response body's hash:
// each shard has its own mutex and its own bounded map, so concurrent
// scans contend only when they land on the same shard.
//
// Eviction is bounded per shard: when a shard exceeds its budget it drops
// roughly half of its entries (Go's randomized map iteration order picks
// the victims), instead of the wholesale make(map...) reset the seed used.
// A full reset discards the long-lived entries — responders serve
// byte-identical bodies for hours — right along with the churn; dropping
// half keeps memory flat while the surviving half keeps its hit rate.
// See DESIGN.md §8.
const cacheShards = 64 // power of two: shard index is a hash mask

// Per-shard entry budgets of the two caches. 64 shards × budget reproduces
// the seed's global bounds (2^17 parsed bodies, 2^18 verification
// verdicts). Request DER needs no cache: it lives in the per-target probes
// a campaign run builds once (scanner.go).
const (
	parseShardBudget  = 1 << 11
	verifyShardBudget = 1 << 12
)

type cacheShard[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]V
	// Pad each shard past a cache line so neighbouring shard mutexes
	// don't false-share under write-heavy load.
	_ [40]byte
}

// shardedCache is safe for concurrent use from its zero value; shard maps
// allocate lazily on first insert.
type shardedCache[K comparable, V any] struct {
	shards [cacheShards]cacheShard[K, V]
}

// shardFor folds the high hash bits into the shard index so keys whose
// hashes differ only above bit 6 still spread across shards.
func (c *shardedCache[K, V]) shardFor(h uint64) *cacheShard[K, V] {
	return &c.shards[(h^(h>>32))&(cacheShards-1)]
}

func (c *shardedCache[K, V]) get(h uint64, key K) (V, bool) {
	s := c.shardFor(h)
	s.mu.Lock()
	v, ok := s.m[key]
	s.mu.Unlock()
	return v, ok
}

// put inserts key under the shard selected by h, bounding the shard by
// budget: on overflow the shard is trimmed to half the budget before the
// insert, so the map never exceeds budget+1 entries.
func (c *shardedCache[K, V]) put(h uint64, key K, v V, budget int) {
	s := c.shardFor(h)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]V)
	}
	if len(s.m) >= budget {
		keep := budget / 2
		for k := range s.m {
			if len(s.m) <= keep {
				break
			}
			delete(s.m, k)
		}
	}
	s.m[key] = v
	s.mu.Unlock()
}

// size reports the total entry count across shards (test hook).
func (c *shardedCache[K, V]) size() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}
