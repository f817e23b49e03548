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
// The cache holds one entry per request, stamped with the epoch it was
// signed for: a cached-mode entry with its update-window start, an
// on-demand or multi-instance-farm entry with the exact virtual instant
// plus the revocation database's status generation, so six vantage points
// probing on the same clock tick share one signature while a Revoke
// between ticks forces regeneration. A farm picks its instance from the
// request and the instant, so it is coherent within an instant though not
// across a window. A hit needs the current epoch; a miss signs and
// overwrites the entry, so a past epoch's response is dropped the moment
// the next epoch asks. A past epoch is not asked for again: a campaign's
// simulated clock only moves forward, and so does the wall clock, where a
// request racing a window boundary can at worst put back the older
// window's entry and cost the next request a signature. Expiry therefore
// needs neither a sweeper nor a key per epoch, and a responder's cache
// stays as large as the set of distinct requests it is asked, however
// long it runs.
//
// The table is a memo.Table keyed by the FNV-64 of the raw request DER.
// Hash keys are confirmed against the stored request bytes, so an FNV
// collision costs a regeneration instead of serving the wrong
// certificate's status.

// respShardBudget bounds a shard before half-eviction. With one entry per
// request it bounds the distinct requests a responder remembers — traffic
// from outside that carries nonces or walks many serials — at 64×256
// responses (~16 MB at the typical ~1 KB response size), far above a
// simulated responder's handful of probed certificates.
const respShardBudget = 256

// respKey names a request and the epoch its response must belong to. The
// table is keyed by the hash alone; the entry keeps the whole key.
type respKey struct {
	hash  uint64 // FNV-64 of the raw request DER
	epoch int64  // window start (cached mode) or scan instant (on-demand, farm), UnixNano
	gen   uint64 // DB status generation (on-demand, farm; 0 in cached mode)
}

type respEntry struct {
	key    respKey // the epoch this response was signed for
	reqDER []byte  // exact request bytes: confirms the hash against collisions
	der    []byte
	meta   Meta
}

type responseCache struct {
	table  memo.Table[uint64, *respEntry]
	hits   atomic.Uint64
	misses atomic.Uint64
}

// get returns the cached response for key — same request, same epoch —
// confirming the stored request bytes, and records the hit or miss.
//
//lint:allocfree
func (c *responseCache) get(key respKey, reqDER []byte) ([]byte, Meta, bool) {
	e, _ := c.table.Get(key.hash, key.hash)
	if e != nil && e.key == key && bytes.Equal(e.reqDER, reqDER) {
		c.hits.Add(1)
		return e.der, e.meta, true
	}
	c.misses.Add(1)
	return nil, Meta{}, false
}

// put stores a generated response for key, replacing the request's entry
// from an earlier epoch, and copies reqDER (the caller's buffer may be
// pooled and reused).
func (c *responseCache) put(key respKey, reqDER, der []byte, meta Meta) {
	e := &respEntry{key: key, reqDER: append([]byte(nil), reqDER...), der: der, meta: meta}
	c.table.Put(key.hash, key.hash, e, respShardBudget)
}
