package responder

import (
	"bytes"
	"sync/atomic"

	"github.com/netmeasure/muststaple/internal/memo"
)

// The signed-response cache exploits the paper's §2.2 observation that
// within one update window an unchanged certificate status yields a
// byte-identical signed response: the responder can answer a repeated
// request without parsing, marshalling, or signing anything.
//
// Keys are epoch-scoped so expiry needs no sweeper: a cached-mode entry is
// keyed by its update-window start and simply stops being found once the
// window rolls over; an on-demand memoization entry is keyed by the exact
// virtual instant plus the revocation database's status generation, so six
// vantage points probing on the same clock tick share one signature while
// a Revoke between ticks forces regeneration. Stale keys are reclaimed by
// the per-shard half-eviction when a shard exceeds its budget.
//
// The table is a memo.Table keyed by the FNV-64 of the raw request DER.
// Hash keys are confirmed against the stored request bytes, so an FNV
// collision costs a regeneration instead of serving the wrong
// certificate's status.

// respShardBudget bounds a shard before half-eviction; the whole cache
// therefore holds at most 64×256 responses (~16 MB at the typical ~1 KB
// response size), far above one responder's working set of live windows.
const respShardBudget = 256

// respKey is the epoch-scoped cache key.
type respKey struct {
	hash  uint64 // FNV-64 of the raw request DER
	epoch int64  // window start (cached mode) or scan instant (on-demand), UnixNano
	gen   uint64 // DB status generation (on-demand memoization; 0 in cached mode)
}

type respEntry struct {
	reqDER []byte // exact request bytes: confirms the hash against collisions
	der    []byte
	meta   Meta
}

type responseCache struct {
	table  memo.Table[respKey, *respEntry]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// get returns the cached response for key, confirming the stored request
// bytes, and records the hit or miss.
//
//lint:allocfree
func (c *responseCache) get(key respKey, reqDER []byte) ([]byte, Meta, bool) {
	e, _ := c.table.Get(key.hash, key)
	if e != nil && bytes.Equal(e.reqDER, reqDER) {
		c.hits.Add(1)
		return e.der, e.meta, true
	}
	c.misses.Add(1)
	return nil, Meta{}, false
}

// put stores a generated response under key, copying reqDER (the caller's
// buffer may be pooled and reused).
func (c *responseCache) put(key respKey, reqDER, der []byte, meta Meta) {
	e := &respEntry{reqDER: append([]byte(nil), reqDER...), der: der, meta: meta}
	c.table.Put(key.hash, key, e, respShardBudget)
}
