package expectstaple

import (
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/wire"
)

// DefaultMaxReportBytes caps a POSTed report body. A canonical report is
// well under 200 bytes (two hostnames, a handful of varints); 4 KiB
// tolerates future fields while bounding hostile input.
const DefaultMaxReportBytes = 4 << 10

// Sink persists raw report payloads. Append must copy the payload before
// returning: the collector's buffer is pooled. The collector calls Append
// with its lock held, one report at a time in arrival order, so Append
// must not call back into the collector. *store.ReportLog is the
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
// (method, media type, size) and decodes on a zero-allocation hot path;
// then, under one mutex, it appends the raw payload to a Sink for replay
// and folds the decoded report into its host's HostStats, all on the
// handler's goroutine. Lock order is arrival order, which is the log
// order. The fold is commutative (counts, min/max times), so snapshots
// are deterministic regardless of handler scheduling.
type Collector struct {
	reg  *metrics.Registry
	sink Sink

	// interns pools decode intern tables across handler goroutines: a
	// table per in-flight request, reused so the steady state decodes
	// hot values with zero allocations.
	interns sync.Pool

	// mu serializes the accepted path: the closed check, the Sink
	// append and the fold into hosts.
	mu     sync.Mutex
	closed bool
	hosts  map[string]*HostStats

	cReports, cAccepted  *metrics.Counter
	cRejMethod, cRejType *metrics.Counter
	cRejSize, cRejDecode *metrics.Counter
	cSinkErr             *metrics.Counter
}

// CollectorOption configures a Collector at construction.
type CollectorOption func(*Collector)

// WithCollectorMetrics instruments the collector: ingest, rejection, and
// sink-error counters land in reg under expectstaple.*.
func WithCollectorMetrics(reg *metrics.Registry) CollectorOption {
	return func(c *Collector) { c.reg = reg }
}

// WithSink persists every accepted raw payload (append-only, in arrival
// order) for offline replay and the staplereport inspector.
func WithSink(s Sink) CollectorOption {
	return func(c *Collector) { c.sink = s }
}

// NewCollector builds a collector. It starts no goroutine; Close stops
// intake.
func NewCollector(opts ...CollectorOption) *Collector {
	c := &Collector{hosts: make(map[string]*HostStats)}
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
	c.cSinkErr = counter("expectstaple.sink.errors")
	return c
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

// ingest decodes one report payload outside the lock, then persists and
// folds it under c.mu — the collector's hot path. Steady state (known
// host and vantage strings) performs no allocations beyond what the
// sink's own framing amortizes.
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

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		http.Error(w, "collector closed", http.StatusServiceUnavailable)
		return
	}
	if c.sink != nil {
		err = c.sink.Append(payload)
	}
	c.fold(&rep)
	c.mu.Unlock()
	if err != nil {
		c.cSinkErr.Inc()
	}
	c.cAccepted.Inc()
	w.WriteHeader(http.StatusAccepted)
}

// fold adds one report to its host's aggregate; c.mu must be held. It
// allocates only on a host's first report.
func (c *Collector) fold(r *Report) {
	hs := c.hosts[r.Host]
	if hs == nil {
		hs = &HostStats{Host: r.Host}
		c.hosts[r.Host] = hs
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

// Close stops intake: a report that reaches the lock after Close gets 503
// and never reaches the Sink, so the caller may close the Sink next.
func (c *Collector) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Snapshot copies the per-host aggregates, sorted by host —
// deterministic for a given multiset of accepted reports. After Close it
// is final.
func (c *Collector) Snapshot() []HostStats {
	c.mu.Lock()
	out := make([]HostStats, 0, len(c.hosts))
	for _, hs := range c.hosts {
		out = append(out, *hs)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Accepted reports how many reports the collector has accepted (202).
func (c *Collector) Accepted() int64 { return c.cAccepted.Value() }

// Dropped is always 0: the collector has no queue, so every report is
// either accepted or refused with a status. The method stays because the
// benchmark harness in bench/ reads it.
func (c *Collector) Dropped() int64 { return 0 }

// reportMediaTypeOK polices the POST media type; parameters are
// tolerated, other types are not.
func reportMediaTypeOK(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), ContentTypeReport)
}
