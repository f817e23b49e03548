package ocspserver

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/responder"
)

func TestH2CAndConnectionReuse(t *testing.T) {
	f := newFixture(t)
	srv := NewServer(NewHandler(f.responder(responder.Profile{Validity: 24 * time.Hour})))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	reqDER, _ := f.request(t)

	// An HTTP/1.1 client with keep-alive: all requests over one client
	// must succeed back-to-back (reused connections).
	client := &http.Client{}
	for i := 0; i < 5; i++ {
		resp, err := client.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(reqDER))
		if err != nil {
			t.Fatal(err)
		}
		if parsed := mustParse(t, readAll(t, resp)); parsed.Status != ocsp.StatusSuccessful {
			t.Fatalf("request %d: status %v", i, parsed.Status)
		}
	}

	// A prior-knowledge h2c client: the server must speak HTTP/2 over
	// cleartext TCP.
	h2Transport := &http.Transport{Protocols: new(http.Protocols)}
	h2Transport.Protocols.SetUnencryptedHTTP2(true)
	client = &http.Client{Transport: h2Transport}
	httpReq, err := http.NewRequest(http.MethodPost, srv.URL(), bytes.NewReader(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", ocsp.ContentTypeRequest)
	resp, err := client.Do(httpReq)
	if err != nil {
		t.Fatalf("h2c request: %v", err)
	}
	body := readAll(t, resp)
	if resp.ProtoMajor != 2 {
		t.Errorf("proto = %s, want HTTP/2.0", resp.Proto)
	}
	if parsed := mustParse(t, body); parsed.Status != ocsp.StatusSuccessful {
		t.Errorf("h2c OCSP status %v", parsed.Status)
	}
}

func TestDebugVars(t *testing.T) {
	f := newFixture(t)
	r := f.responder(responder.Profile{CacheResponses: true, Validity: 24 * time.Hour})
	reg := metrics.NewRegistry()
	h := NewHandler(r, WithMetrics(reg))
	srv := NewServer(h, WithRoute("/debug/vars", NewDebugVars(reg, r)))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	reqDER, _ := f.request(t)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(reqDER))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(srv.URL() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type %q", ct)
	}
	var payload struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("debug vars not JSON: %v\n%s", err, body)
	}
	if got := payload.Counters["ocspserver.requests"]; got != 3 {
		t.Errorf("requests counter = %d, want 3", got)
	}
	if got := payload.Counters["ocspserver.post"]; got != 3 {
		t.Errorf("post counter = %d, want 3", got)
	}
	// First POST misses the signed-response cache, the rest hit.
	if got := payload.Gauges["responder.cache.hits.ocsp.tier.test"]; got != 2 {
		t.Errorf("cache hits gauge = %d, want 2", got)
	}
	if got := payload.Gauges["responder.cache.misses.ocsp.tier.test"]; got != 1 {
		t.Errorf("cache misses gauge = %d, want 1", got)
	}
	// Serve-source counters: 1 signing miss + 2 cache hits.
	if got := payload.Counters["ocspserver.source.sign"]; got != 1 {
		t.Errorf("source.sign = %d, want 1", got)
	}
	if got := payload.Counters["ocspserver.source.cache"]; got != 2 {
		t.Errorf("source.cache = %d, want 2", got)
	}
}

// TestEpochRolloverUnderLoad is the acceptance test for graceful epoch
// rollover: with a pre-generating profile, concurrent GET and POST
// clients hammer the tier over a real socket while the simulated clock
// sweeps across several update-window boundaries. Every response must be
// HTTP 200, parse as a successful OCSP response, and be fresh — never
// stale beyond its own nextUpdate at serve time.
func TestEpochRolloverUnderLoad(t *testing.T) {
	f := newFixture(t)
	r := f.responder(responder.Profile{
		CacheResponses: true,
		Validity:       2 * time.Hour,
		UpdateInterval: time.Hour,
	})
	srv := NewServer(NewHandler(r))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())
	reqDER, id := f.request(t)
	getURL := srv.URL() + "/" + ocsp.EncodeGETPath(reqDER)

	const clients = 8
	var (
		stop     atomic.Bool
		failures atomic.Int64
		served   atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(format string, args ...any) {
		failures.Add(1)
		t.Errorf(format, args...)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			for !stop.Load() {
				// Snapshot the clock before the request: freshness is
				// judged against time that had already passed when the
				// request left, so clock advances mid-flight cannot
				// falsely fail a response.
				before := f.clk.Now()
				var (
					resp *http.Response
					err  error
				)
				if c%2 == 0 {
					resp, err = client.Get(getURL)
				} else {
					resp, err = client.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(reqDER))
				}
				if err != nil {
					fail("client %d: %v", c, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					fail("client %d read: %v", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					fail("client %d: HTTP %d", c, resp.StatusCode)
					continue
				}
				parsed, err := ocsp.ParseResponse(body)
				if err != nil {
					fail("client %d: unparsable response across rollover: %v", c, err)
					continue
				}
				if parsed.Status != ocsp.StatusSuccessful {
					fail("client %d: OCSP status %v", c, parsed.Status)
					continue
				}
				single := parsed.Find(id)
				if single == nil {
					fail("client %d: response misses serial", c)
					continue
				}
				if single.NextUpdate.Before(before) {
					fail("client %d: stale response: nextUpdate %v < request time %v",
						c, single.NextUpdate, before)
				}
				served.Add(1)
			}
		}(c)
	}

	// Sweep the clock across three window boundaries while the clients
	// run. Small steps land requests on both sides of each boundary.
	for step := 0; step < 3*60; step++ {
		f.clk.Advance(time.Minute)
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no responses served during rollover sweep")
	}
	if failures.Load() > 0 {
		t.Fatalf("%d failed or stale responses across %d served", failures.Load(), served.Load())
	}
	t.Logf("rollover sweep: %d responses served across 3 window boundaries, 0 failures", served.Load())
}

// TestGracefulShutdownDrains verifies Shutdown completes in-flight
// requests instead of resetting them.
func TestGracefulShutdownDrains(t *testing.T) {
	f := newFixture(t)
	srv := NewServer(NewHandler(f.responder(responder.Profile{})))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	reqDER, _ := f.request(t)

	resp, err := http.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if mustParse(t, body).Status != ocsp.StatusSuccessful {
		t.Error("pre-shutdown response corrupted")
	}
	// The listener is gone after shutdown.
	if _, err := http.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(reqDER)); err == nil {
		t.Error("post-shutdown request should fail")
	}
}
