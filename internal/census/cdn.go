package census

import (
	"context"
	"sync"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/webserver"
)

// CDNCache models the CDN perspective of §5.2: a CDN (the paper used
// Akamai logs) fronts OCSP responders with a response cache, so only a
// small fraction of TLS connections trigger upstream OCSP fetches, those
// fetches touch a small set of responders (~20), and — because fetches
// happen only when a cached response reaches half its validity, with
// retry headroom inside the old response's validity — the upstream
// success rate is ~100%. The cache runs webserver.CDNPolicy's transition.
type CDNCache struct {
	// Client performs the upstream OCSP fetches.
	Client *scanner.Client
	// Clock is the (virtual) time source.
	Clock clock.Clock
	// Vantage is the CDN's network location.
	Vantage netsim.Vantage

	mu    sync.Mutex
	held  map[string]webserver.Held
	stats CDNStats
}

// cdnPolicy is the CDN cache's stapling policy.
var cdnPolicy = webserver.CDNPolicy()

// CDNStats summarizes cache behavior.
type CDNStats struct {
	// Lookups is the number of TLS connections needing an OCSP status.
	Lookups int
	// Hits were served from cache.
	Hits int
	// UpstreamFetches and UpstreamSuccesses count origin OCSP traffic.
	UpstreamFetches   int
	UpstreamSuccesses int
	// RespondersContacted is the distinct upstream responder count.
	RespondersContacted int

	contacted map[string]bool
}

// HitRate returns Hits/Lookups.
func (s CDNStats) HitRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Lookups)
}

// UpstreamSuccessRate returns the §5.2 CDN observation (~100%).
func (s CDNStats) UpstreamSuccessRate() float64 {
	if s.UpstreamFetches == 0 {
		return 0
	}
	return float64(s.UpstreamSuccesses) / float64(s.UpstreamFetches)
}

// NewCDNCache builds an empty cache.
func NewCDNCache(client *scanner.Client, clk clock.Clock, vantage netsim.Vantage) *CDNCache {
	return &CDNCache{
		Client:  client,
		Clock:   clk,
		Vantage: vantage,
		held:    make(map[string]webserver.Held),
		stats:   CDNStats{contacted: make(map[string]bool)},
	}
}

// Lookup serves one TLS connection's OCSP need for the target, fetching
// upstream only when the policy says the cached response is due. It
// returns true when a valid status was available (from cache or
// upstream). ctx bounds the upstream fetch.
func (c *CDNCache) Lookup(ctx context.Context, tgt scanner.Target) bool {
	now := c.Clock.Now()
	key := tgt.Responder + "|" + tgt.Serial.String()

	c.mu.Lock()
	c.stats.Lookups++
	if h := c.held[key]; !cdnPolicy.Due(h, now) {
		c.stats.Hits++
		c.mu.Unlock()
		return cdnPolicy.Staple(h, now, nil)
	}
	c.mu.Unlock()

	f := webserver.Observed(c.Client.Scan(ctx, c.Vantage, now, tgt))

	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.UpstreamFetches++
	c.stats.contacted[tgt.Responder] = true
	c.stats.RespondersContacted = len(c.stats.contacted)
	if f.Usable {
		c.stats.UpstreamSuccesses++
	}
	h := c.held[key]
	c.held[key], _ = cdnPolicy.Apply(h, f, now)
	return cdnPolicy.Staple(h, now, &f)
}

// Stats snapshots the counters.
func (c *CDNCache) Stats() CDNStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.contacted = nil
	return s
}
