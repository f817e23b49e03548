package expectstaple

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/wire"
)

const (
	// DefaultMaxReportBytes caps a POSTed report body. A canonical
	// report is well under 200 bytes (two hostnames, a handful of
	// varints); 4 KiB tolerates future fields while bounding hostile
	// input.
	DefaultMaxReportBytes = 4 << 10

	// DefaultShards is the aggregation fan-out. Hosts hash to shards,
	// so each shard worker owns a disjoint key space and needs no
	// locks.
	DefaultShards = 64

	// DefaultQueueDepth is each shard's bounded intake queue. The
	// collector sheds load (503) rather than let a slow shard apply
	// backpressure to the HTTP tier.
	DefaultQueueDepth = 4096
)

// Sink persists raw report payloads. Append must copy the payload before
// returning: the collector's buffer is pooled. *store.ReportLog is the
// production implementation.
type Sink interface {
	Append(payload []byte) error
}

// HostStats is the aggregated violation telemetry for one reported host.
type HostStats struct {
	Host        string
	Total       uint64
	ByViolation [NumViolations]uint64
	// Enforced counts reports whose noted policy was in enforce mode.
	Enforced uint64
	// First and Last bracket the handshake times reported for the host.
	First, Last time.Time
}

// Collector is the report-uri endpoint: a production-grade HTTP ingester
// for Expect-Staple violation reports. The handler polices transport
// (method, media type, size), decodes on a zero-allocation hot path,
// appends the raw payload to a Sink for replay, and routes the decoded
// report to a per-host-shard aggregation worker over a bounded queue.
// Aggregation is commutative (counts, min/max times), so snapshots are
// deterministic regardless of worker scheduling.
type Collector struct {
	reg        *metrics.Registry
	sink       Sink
	queueDepth int
	shards     []chan Report

	// interns pools decode intern tables across handler goroutines: a
	// table per in-flight request, reused so the steady state decodes
	// hot values with zero allocations.
	interns sync.Pool

	// mu guards the open/closed transition: handlers hold the read side
	// while enqueueing so Close can safely close the shard channels.
	mu     sync.RWMutex
	closed bool

	// sinkMu serializes Sink appends (arrival order is the log order).
	sinkMu sync.Mutex

	wg   sync.WaitGroup
	aggs []map[string]*HostStats

	cReports, cAccepted  *metrics.Counter
	cRejMethod, cRejType *metrics.Counter
	cRejSize, cRejDecode *metrics.Counter
	cDropped, cSinkErr   *metrics.Counter
}

// CollectorOption configures a Collector at construction.
type CollectorOption func(*Collector)

// WithCollectorMetrics instruments the collector: ingest, rejection, and
// drop counters land in reg under expectstaple.*.
func WithCollectorMetrics(reg *metrics.Registry) CollectorOption {
	return func(c *Collector) { c.reg = reg }
}

// WithShards overrides the aggregation fan-out.
func WithShards(n int) CollectorOption {
	return func(c *Collector) {
		if n > 0 {
			c.shards = make([]chan Report, n)
		}
	}
}

// WithQueueDepth overrides each shard's bounded queue depth.
func WithQueueDepth(n int) CollectorOption {
	return func(c *Collector) {
		if n > 0 {
			c.queueDepth = n
		}
	}
}

// WithSink persists every accepted raw payload (append-only, in arrival
// order) for offline replay and the staplereport inspector.
func WithSink(s Sink) CollectorOption {
	return func(c *Collector) { c.sink = s }
}

// NewCollector builds and starts a collector; Close releases it.
func NewCollector(opts ...CollectorOption) *Collector {
	c := &Collector{
		shards:     make([]chan Report, DefaultShards),
		queueDepth: DefaultQueueDepth,
	}
	for _, o := range opts {
		o(c)
	}
	c.interns.New = func() any { return wire.NewInterns() }
	counter := func(name string) *metrics.Counter {
		if c.reg != nil {
			return c.reg.Counter(name)
		}
		return &metrics.Counter{}
	}
	c.cReports = counter("expectstaple.reports")
	c.cAccepted = counter("expectstaple.accepted")
	c.cRejMethod = counter("expectstaple.rejected.method")
	c.cRejType = counter("expectstaple.rejected.mediatype")
	c.cRejSize = counter("expectstaple.rejected.oversize")
	c.cRejDecode = counter("expectstaple.rejected.decode")
	c.cDropped = counter("expectstaple.dropped")
	c.cSinkErr = counter("expectstaple.sink.errors")

	c.aggs = make([]map[string]*HostStats, len(c.shards))
	for i := range c.shards {
		c.shards[i] = make(chan Report, c.queueDepth)
		c.aggs[i] = make(map[string]*HostStats)
		c.wg.Add(1)
		go c.aggregate(i)
	}
	return c
}

// aggregate is shard i's worker: it owns aggs[i] exclusively, so the
// fold needs no locks. All operations are commutative and associative —
// worker scheduling cannot change the final snapshot.
func (c *Collector) aggregate(i int) {
	defer c.wg.Done()
	agg := c.aggs[i]
	for r := range c.shards[i] {
		hs := agg[r.Host]
		if hs == nil {
			hs = &HostStats{Host: r.Host}
			agg[r.Host] = hs
		}
		hs.Total++
		hs.ByViolation[r.Violation]++
		if r.Enforce {
			hs.Enforced++
		}
		if hs.First.IsZero() || r.At.Before(hs.First) {
			hs.First = r.At
		}
		if r.At.After(hs.Last) {
			hs.Last = r.At
		}
	}
}

// ServeHTTP ingests one POSTed report.
func (c *Collector) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	c.cReports.Inc()
	if req.Method != http.MethodPost {
		c.cRejMethod.Inc()
		w.Header().Set("Allow", "POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !reportMediaTypeOK(req.Header.Get("Content-Type")) {
		c.cRejType.Inc()
		http.Error(w, "Content-Type must be "+ContentTypeReport, http.StatusUnsupportedMediaType)
		return
	}
	// The payload does not outlive this call (the sink copies, the
	// decoded report's strings are interned), so the read buffer is
	// pooled — a telemetry endpoint ingests millions of reports.
	buf := pkixutil.GetBuffer()
	defer pkixutil.PutBuffer(buf)
	if _, err := buf.ReadFrom(io.LimitReader(req.Body, DefaultMaxReportBytes+1)); err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	if buf.Len() > DefaultMaxReportBytes {
		c.cRejSize.Inc()
		http.Error(w, "report too large", http.StatusRequestEntityTooLarge)
		return
	}
	c.ingest(w, buf.Bytes())
}

// ingest decodes, persists, and routes one report payload — the
// collector's hot path. Steady state (known host and vantage strings,
// shard queue not full) performs no allocations beyond what the sink's
// own framing amortizes.
//
//lint:allocfree
func (c *Collector) ingest(w http.ResponseWriter, payload []byte) {
	it := c.interns.Get().(*wire.Interns)
	rep, err := decodeReportInterned(payload, it)
	c.interns.Put(it)
	if err != nil {
		c.cRejDecode.Inc()
		http.Error(w, "malformed report", http.StatusBadRequest)
		return
	}

	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		http.Error(w, "collector closed", http.StatusServiceUnavailable)
		return
	}
	shard := c.shards[int(hashx.Sum64(rep.Host)%uint64(len(c.shards)))]
	select { //lint:allow locksafe non-blocking send under RLock; Close holds the write lock before closing the shard channels, so this can neither block nor hit a closed channel
	case shard <- rep:
	default:
		c.mu.RUnlock()
		c.cDropped.Inc()
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	if c.sink != nil {
		c.sinkMu.Lock()
		err = c.sink.Append(payload)
		c.sinkMu.Unlock()
		if err != nil {
			c.cSinkErr.Inc()
		}
	}
	c.mu.RUnlock()
	c.cAccepted.Inc()
	w.WriteHeader(http.StatusAccepted)
}

// Close stops intake (further POSTs get 503), drains the shard queues,
// and waits for the aggregation workers. Snapshot is valid after Close.
func (c *Collector) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	for _, ch := range c.shards {
		close(ch)
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// Snapshot merges the shard aggregates, sorted by host — deterministic
// for a given multiset of accepted reports. Call after Close.
func (c *Collector) Snapshot() []HostStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.closed {
		return nil
	}
	var out []HostStats
	for _, agg := range c.aggs {
		for _, hs := range agg {
			out = append(out, *hs)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Accepted reports how many reports the collector has accepted (202).
func (c *Collector) Accepted() int64 { return c.cAccepted.Value() }

// Dropped reports how many reports were shed on a full shard queue.
func (c *Collector) Dropped() int64 { return c.cDropped.Value() }

// reportMediaTypeOK polices the POST media type; parameters are
// tolerated, other types are not.
func reportMediaTypeOK(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), ContentTypeReport)
}
