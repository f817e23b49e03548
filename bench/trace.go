package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/loadgen"
)

// traceHeader carries a request's trace id from the benchmark's client to
// its server wrapper, linking the two spans of one request.
const traceHeader = "X-Bench-Trace"

// sampleEvery keeps the full span of one operation in this many; every
// operation still lands in its span name's histogram.
const sampleEvery = 64

// span is one recorded interval, written as a JSONL line. Times are
// nanoseconds since the tracer started, on the monotonic clock.
type span struct {
	Trace  uint64 `json:"trace"`
	Span   uint32 `json:"span"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span ids within a trace: the operation's root span, then spans it
// caused.
const (
	rootSpan   = 1
	serverSpan = 2
)

// tracer records spans at the boundaries the benchmark owns: histograms
// per span name for every operation, full spans for the sampled ones.
// It lives in the benchmark, around calls into each layer; no layer is
// instrumented from inside.
type tracer struct {
	base time.Time
	next atomic.Uint64 // operation index: the trace id of the next root span
	// active switches the wrappers that cannot tell a traced request
	// from an untraced one (the report-log sink).
	active atomic.Bool

	mu    sync.Mutex
	hists map[string]*loadgen.Hist
	spans []span
	// server holds each traced request's server-span duration until its
	// client span ends and the client's own share can be computed.
	server map[uint64]time.Duration
	// negSelf counts requests whose server span outlasted the client's
	// round trip, which a correct trace never shows.
	negSelf int64
}

func newTracer() *tracer {
	t := &tracer{base: time.Now()}
	t.reset()
	return t
}

// reset drops everything recorded so far (the overhead legs are traced
// only to pay the tracing cost; the layer quantiles come from later legs).
func (t *tracer) reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hists = make(map[string]*loadgen.Hist)
	t.spans = nil
	t.server = make(map[uint64]time.Duration)
	t.negSelf = 0
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.base).Nanoseconds() }

// recordLocked adds one span to its histogram and, when its trace is
// sampled, to the span log. t.mu must be held.
func (t *tracer) recordLocked(name string, trace uint64, id, parent uint32, start, end time.Time) {
	t.hist(name).RecordDuration(end.Sub(start))
	if trace%sampleEvery == 0 {
		t.spans = append(t.spans, span{Trace: trace, Span: id, Parent: parent, Name: name, Start: t.ns(start), End: t.ns(end)})
	}
}

// newTrace allocates the trace id of the next operation.
func (t *tracer) newTrace() uint64 { return t.next.Add(1) - 1 }

// root records a span that is an operation of its own.
func (t *tracer) root(name string, start, end time.Time) {
	trace := t.newTrace()
	t.mu.Lock()
	t.recordLocked(name, trace, rootSpan, 0, start, end)
	t.mu.Unlock()
}

// client records a request's client span, from send to drained body,
// and the client's own share of it: the round trip minus the server span
// of the same request.
func (t *tracer) client(trace uint64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recordLocked("http.rtt", trace, rootSpan, 0, start, end)
	srv, ok := t.server[trace]
	if !ok {
		return
	}
	delete(t.server, trace)
	self := end.Sub(start) - srv
	if self < 0 {
		t.negSelf++
		self = 0
	}
	t.hist("http.self").RecordDuration(self)
}

// hist returns name's histogram, creating it. t.mu must be held.
func (t *tracer) hist(name string) *loadgen.Hist {
	h := t.hists[name]
	if h == nil {
		h = new(loadgen.Hist)
		t.hists[name] = h
	}
	return h
}

// wrapServer records a server span around h for every request that
// carries a trace id. net/http flushes a small response only after the
// handler returns, so the span is recorded before the client can see the
// response end.
func (t *tracer) wrapServer(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		trace, err := strconv.ParseUint(req.Header.Get(traceHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		t.mu.Lock()
		t.recordLocked(name, trace, serverSpan, rootSpan, start, end)
		t.server[trace] = end.Sub(start)
		t.mu.Unlock()
	})
}

// snapshot returns copies of the recorded histograms and spans.
func (t *tracer) snapshot() (map[string]*loadgen.Hist, []span, int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	hists := make(map[string]*loadgen.Hist, len(t.hists))
	for name, h := range t.hists {
		c := *h
		hists[name] = &c
	}
	return hists, append([]span(nil), t.spans...), t.negSelf
}

// writeSpans writes the sampled spans to dir/<workload>.spans.jsonl.
func writeSpans(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, workload+".spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantileUs returns h's q-quantile in microseconds (0 when empty).
func quantileUs(h *loadgen.Hist, q float64) float64 {
	if h == nil {
		return 0
	}
	return float64(h.Quantile(q)) / 1e3
}

// layerRow is one line of a workload's layer table.
type layerRow struct {
	layer            string
	count            uint64
	selfP50, selfP99 time.Duration
	share            float64
}

// printLayerTable writes a workload's layer table: per layer, how many
// operations it saw, its self time, and its share of the reference (the
// client round trip's p50, or the campaign's wall time).
func printLayerTable(w io.Writer, workload, reference string, rows []layerRow) {
	fmt.Fprintf(w, "\nlayer table: %s (share of %s)\n", workload, reference)
	fmt.Fprintf(w, "  %-34s %10s %14s %14s %8s\n", "layer", "count", "self p50 us", "self p99 us", "share")
	var sum time.Duration
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %10d %14.2f %14.2f %8.3f\n", r.layer, r.count,
			float64(r.selfP50)/1e3, float64(r.selfP99)/1e3, r.share)
		sum += r.selfP50
	}
	fmt.Fprintf(w, "  %-34s %10s %14.2f\n", "sum of self p50", "", float64(sum)/1e3)
}
