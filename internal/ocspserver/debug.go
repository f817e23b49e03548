package ocspserver

import (
	"encoding/json"
	"net/http"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/responder"
)

// DebugVars is a /debug/vars-style introspection endpoint: a JSON dump
// of the serving tier's metrics registry, refreshed at scrape time with
// the responder's signed-response cache statistics and database
// generation. It replaces the ad-hoc SIGINT stat prints the standalone
// responder used to do — operators (and the loadcheck CI target) curl it
// instead.
type DebugVars struct {
	reg *metrics.Registry
	r   *responder.Responder
}

// NewDebugVars builds the endpoint over reg, scraping r's cache stats at
// each request.
func NewDebugVars(reg *metrics.Registry, r *responder.Responder) *DebugVars {
	return &DebugVars{reg: reg, r: r}
}

// debugPayload is the wire shape. encoding/json marshals maps with
// sorted keys, so output is deterministic for a fixed state. Timer
// histograms are not rendered: no serving-tier registry starts a timer.
type debugPayload struct {
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// ServeHTTP renders the current metrics state as JSON.
func (d *DebugVars) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	hits, misses := d.r.CacheStats()
	d.reg.Gauge("responder.cache.hits." + d.r.Host).Set(int64(hits))
	d.reg.Gauge("responder.cache.misses." + d.r.Host).Set(int64(misses))
	d.reg.Gauge("responder.db.generation." + d.r.Host).Set(int64(d.r.DB.Generation()))
	snap := d.reg.Snapshot()
	payload := debugPayload{Counters: snap.Counters, Gauges: snap.Gauges}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&payload) //lint:allow errcheck-hot client disconnect mid-dump is not actionable
}
