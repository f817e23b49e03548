package expectstaple

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func postReport(t *testing.T, c *Collector, method, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, "http://reports.test/expect-staple", bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rr := httptest.NewRecorder()
	c.ServeHTTP(rr, req)
	return rr
}

func validReportBytes(host string, v Violation, at time.Time) []byte {
	return AppendReport(nil, &Report{At: at, Host: host, Vantage: "Oregon", Violation: v, Enforce: true})
}

func TestCollectorPolicing(t *testing.T) {
	c := NewCollector()
	defer c.Close()
	body := validReportBytes("a.test", ViolationMissing, time.Unix(1000, 0).UTC())

	if rr := postReport(t, c, http.MethodGet, ContentTypeReport, body); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET: got %d, want 405", rr.Code)
	} else if rr.Header().Get("Allow") != "POST" {
		t.Fatalf("GET: Allow header %q, want POST", rr.Header().Get("Allow"))
	}
	if rr := postReport(t, c, http.MethodPost, "application/json", body); rr.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("wrong media type: got %d, want 415", rr.Code)
	}
	if rr := postReport(t, c, http.MethodPost, ContentTypeReport, make([]byte, DefaultMaxReportBytes+1)); rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized: got %d, want 413", rr.Code)
	}
	if rr := postReport(t, c, http.MethodPost, ContentTypeReport, []byte{0xff, 0xff}); rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed: got %d, want 400", rr.Code)
	}
	if rr := postReport(t, c, http.MethodPost, ContentTypeReport, body); rr.Code != http.StatusAccepted {
		t.Fatalf("valid: got %d, want 202", rr.Code)
	}
	// Media-type parameters are tolerated.
	if rr := postReport(t, c, http.MethodPost, ContentTypeReport+"; charset=binary", body); rr.Code != http.StatusAccepted {
		t.Fatalf("media type with parameter: got %d, want 202", rr.Code)
	}
	if got := c.Accepted(); got != 2 {
		t.Fatalf("Accepted = %d, want 2", got)
	}
}

func TestCollectorAggregationAndSink(t *testing.T) {
	var sink memorySink
	c := NewCollector(WithSink(&sink))

	base := time.Unix(10_000, 0).UTC()
	const perHost = 25
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := 0; j < perHost; j++ {
				host := fmt.Sprintf("site-%d.test", worker%4)
				v := Violation(j % NumViolations)
				body := validReportBytes(host, v, base.Add(time.Duration(j)*time.Minute))
				if rr := postReport(t, c, http.MethodPost, ContentTypeReport, body); rr.Code != http.StatusAccepted {
					t.Errorf("post: got %d, want 202", rr.Code)
				}
			}
		}(i)
	}
	wg.Wait()
	c.Close()

	// Closed collector sheds with 503.
	if rr := postReport(t, c, http.MethodPost, ContentTypeReport, validReportBytes("late.test", ViolationMissing, base)); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("post after close: got %d, want 503", rr.Code)
	}

	snap := c.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d hosts, want 4", len(snap))
	}
	for i, hs := range snap {
		if want := fmt.Sprintf("site-%d.test", i); hs.Host != want {
			t.Fatalf("snapshot[%d].Host = %q, want %q (sorted)", i, hs.Host, want)
		}
		if hs.Total != 2*perHost {
			t.Fatalf("%s: Total = %d, want %d", hs.Host, hs.Total, 2*perHost)
		}
		if hs.Enforced != hs.Total {
			t.Fatalf("%s: Enforced = %d, want %d", hs.Host, hs.Enforced, hs.Total)
		}
		var sum uint64
		for _, n := range hs.ByViolation {
			sum += n
		}
		if sum != hs.Total {
			t.Fatalf("%s: violation counts sum to %d, want %d", hs.Host, sum, hs.Total)
		}
		if !hs.First.Equal(base) {
			t.Fatalf("%s: First = %v, want %v", hs.Host, hs.First, base)
		}
		if want := base.Add((perHost - 1) * time.Minute); !hs.Last.Equal(want) {
			t.Fatalf("%s: Last = %v, want %v", hs.Host, hs.Last, want)
		}
	}

	// Every accepted report reached the sink, and each persisted payload
	// still decodes.
	if int64(len(sink.payloads)) != c.Accepted() {
		t.Fatalf("sink holds %d payloads, accepted %d", len(sink.payloads), c.Accepted())
	}
	for _, p := range sink.payloads {
		if _, err := DecodeReport(p); err != nil {
			t.Fatalf("persisted payload does not decode: %v", err)
		}
	}
	if c.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", c.Dropped())
	}
}

func TestCollectorConcurrentFlood(t *testing.T) {
	// Many handlers at once on few hosts: every report is accepted, and
	// the log, the counters and the aggregates each account for all of
	// them.
	var sink memorySink
	c := NewCollector(WithSink(&sink))
	const workers, perWorker, hosts = 16, 50, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				host := fmt.Sprintf("flood-%d.test", (w+i)%hosts)
				body := validReportBytes(host, Violation(i%NumViolations), time.Unix(int64(i), 0).UTC())
				if code := postReport(t, c, http.MethodPost, ContentTypeReport, body).Code; code != http.StatusAccepted {
					t.Errorf("post: got %d, want 202", code)
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()

	if got, want := c.Accepted(), int64(workers*perWorker); got != want {
		t.Fatalf("Accepted = %d, want %d", got, want)
	}
	snap := c.Snapshot()
	if len(snap) != hosts {
		t.Fatalf("snapshot has %d hosts, want %d", len(snap), hosts)
	}
	var total uint64
	for _, hs := range snap {
		total += hs.Total
	}
	if total != uint64(c.Accepted()) || int64(len(sink.payloads)) != c.Accepted() {
		t.Fatalf("accepted %d, snapshot totals %d, persisted %d", c.Accepted(), total, len(sink.payloads))
	}
	if c.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", c.Dropped())
	}
}

func TestCollectorCloseStopsSinkAppends(t *testing.T) {
	// Close races a flood. Each report is either accepted (and then
	// persisted and aggregated) or refused with 503; once Close returns,
	// no handler reaches the sink, so the caller may close it.
	var sink memorySink
	c := NewCollector(WithSink(&sink))
	body := validReportBytes("close.test", ViolationMissing, time.Unix(1, 0).UTC())
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	var refused atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				switch code := postReport(t, c, http.MethodPost, ContentTypeReport, body).Code; code {
				case http.StatusAccepted:
				case http.StatusServiceUnavailable:
					refused.Add(1)
				default:
					t.Errorf("post: got %d, want 202 or 503", code)
				}
			}
		}()
	}
	for c.Accepted() < workers*perWorker/4 {
		runtime.Gosched()
	}
	c.Close()
	atClose := sink.count()
	wg.Wait()

	if late := sink.count() - atClose; late != 0 {
		t.Fatalf("%d appends reached the sink after Close returned", late)
	}
	if got := c.Accepted() + refused.Load(); got != workers*perWorker {
		t.Fatalf("accepted %d + refused %d = %d, want %d", c.Accepted(), refused.Load(), got, workers*perWorker)
	}
	if n := int64(sink.count()); n != c.Accepted() {
		t.Fatalf("sink holds %d payloads, accepted %d", n, c.Accepted())
	}
	var total uint64
	for _, hs := range c.Snapshot() {
		total += hs.Total
	}
	if total != uint64(c.Accepted()) {
		t.Fatalf("snapshot totals %d, accepted %d", total, c.Accepted())
	}
}

func TestNewCollectorFootprint(t *testing.T) {
	// Construction starts no goroutine and allocates no queue: the
	// collector's memory is its per-host aggregates.
	var before, after runtime.MemStats
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	runtime.ReadMemStats(&before)
	c := NewCollector()
	runtime.ReadMemStats(&after)
	if d := runtime.NumGoroutine() - goroutines; d > 0 {
		t.Errorf("NewCollector started %d goroutines, want 0", d)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 64<<10 {
		t.Errorf("NewCollector allocated %d bytes, want < 64 KiB", d)
	}
	c.Close()
}

type memorySink struct {
	mu       sync.Mutex
	payloads [][]byte
}

func (s *memorySink) Append(p []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.payloads = append(s.payloads, append([]byte(nil), p...))
	return nil
}

func (s *memorySink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.payloads)
}

func BenchmarkCollectorIngest(b *testing.B) {
	c := NewCollector()
	defer c.Close()
	body := validReportBytes("bench.test", ViolationExpired, time.Unix(1000, 0).UTC())
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		req := httptest.NewRequest(http.MethodPost, "http://reports.test/expect-staple", nil)
		req.Header.Set("Content-Type", ContentTypeReport)
		for pb.Next() {
			req.Body = nopCloser{bytes.NewReader(body)}
			rr := httptest.NewRecorder()
			c.ServeHTTP(rr, req)
			if rr.Code != http.StatusAccepted {
				b.Fatalf("status %d", rr.Code)
			}
		}
	})
}

type nopCloser struct{ *bytes.Reader }

func (nopCloser) Close() error { return nil }
