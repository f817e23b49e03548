package ocspserver

import (
	"bytes"
	"context"
	"crypto"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

// tenant builds one CA + leaf + responder trio for multi-tenant tests.
type tenant struct {
	ca     *pki.CA
	leaf   *pki.Leaf
	r      *responder.Responder
	reqDER []byte
}

func newTenant(t testing.TB, host string, clk clock.Clock) *tenant {
	t.Helper()
	ca, err := pki.NewRootCA(pki.Config{Name: host + " CA", OCSPURL: "http://" + host})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{host}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	req, err := ocsp.NewRequest(leaf.Certificate, ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return &tenant{
		ca: ca, leaf: leaf, reqDER: reqDER,
		r: responder.New(host, ca, db, clk, responder.Profile{Validity: 24 * time.Hour}),
	}
}

func TestMultiTenantRouting(t *testing.T) {
	clk := clock.NewSimulated(t0)
	a := newTenant(t, "ocsp.tenant-a.test", clk)
	b := newTenant(t, "ocsp.tenant-b.test", clk)
	stranger := newTenant(t, "ocsp.stranger.test", clk) // never registered

	reg := NewRegistry()
	if err := reg.Register(a.r); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(b.r); err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("Len = %d", reg.Len())
	}

	srv := NewServer(NewMultiTenantHandler(reg))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	// Each tenant's request routes to its own CA: the response must
	// verify under that CA's key. Route twice to exercise the route memo.
	for _, tt := range []*tenant{a, b, a, b} {
		resp, err := http.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(tt.reqDER))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		parsed := mustParse(t, body)
		if parsed.Status != ocsp.StatusSuccessful {
			t.Fatalf("tenant %s: OCSP status %v", tt.r.Host, parsed.Status)
		}
		if err := parsed.CheckSignatureFrom(tt.ca.Certificate); err != nil {
			t.Errorf("tenant %s: response not signed by own CA: %v", tt.r.Host, err)
		}
	}

	// SHA-256 CertIDs route too (the registry indexes both algorithms).
	req256, err := ocsp.NewRequest(a.leaf.Certificate, a.ca.Certificate, crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	der256, err := req256.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(der256))
	if err != nil {
		t.Fatal(err)
	}
	if parsed := mustParse(t, readAll(t, resp)); parsed.Status != ocsp.StatusSuccessful {
		t.Errorf("SHA-256 routing: OCSP status %v", parsed.Status)
	}

	// A request for an unregistered CA gets OCSP unauthorized over 200.
	resp, err = http.Post(srv.URL(), ocsp.ContentTypeRequest, bytes.NewReader(stranger.reqDER))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown-tenant status %d, want 200", resp.StatusCode)
	}
	if parsed := mustParse(t, body); parsed.Status != ocsp.StatusUnauthorized {
		t.Errorf("unknown tenant OCSP status = %v, want unauthorized", parsed.Status)
	}
}

func TestRegistryRejectsDuplicateHost(t *testing.T) {
	clk := clock.NewSimulated(t0)
	a := newTenant(t, "ocsp.dup.test", clk)
	b := newTenant(t, "ocsp.dup.test", clk) // distinct CA, same host

	reg := NewRegistry()
	if err := reg.Register(a.r); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(b.r); err == nil {
		t.Error("distinct tenant with duplicate host must be rejected")
	}
	// Re-registering the same tenant is idempotent.
	if err := reg.Register(a.r); err != nil {
		t.Errorf("re-register same tenant: %v", err)
	}
}

// TestRegistryRejectsIssuerReplacement: a second tenant for a registered
// issuer is rejected. The route and GET memos are never invalidated, so
// the same POST and GET must keep answering as the tenant the registry
// routes to.
func TestRegistryRejectsIssuerReplacement(t *testing.T) {
	clk := clock.NewSimulated(t0)
	a := newTenant(t, "ocsp.first.test", clk)
	first := responder.New(a.r.Host, a.ca, a.r.DB, clk, cachedProfile)
	reg := NewRegistry()
	if err := reg.Register(first); err != nil {
		t.Fatal(err)
	}
	h := NewMultiTenantHandler(reg)
	post := func() ocsp.ResponseStatus {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(a.reqDER))
		req.Header.Set("Content-Type", ocsp.ContentTypeRequest)
		h.ServeHTTP(rec, req)
		return mustParse(t, rec.Body.Bytes()).Status
	}
	get := func() ocsp.ResponseStatus {
		return mustParse(t, getRecorder(t, h, a.reqDER).Body.Bytes()).Status
	}
	if p, g := post(), get(); p != ocsp.StatusSuccessful || g != ocsp.StatusSuccessful {
		t.Fatalf("first tenant: POST %v, GET %v; want successful", p, g)
	}

	tryLater := responder.New("ocsp.second.test", a.ca, a.r.DB, clk, responder.Profile{ErrorStatus: ocsp.StatusTryLater})
	if err := reg.Register(tryLater); err == nil {
		t.Error("a second tenant for a registered issuer was accepted")
	}
	parsed, err := ocsp.ParseRequest(a.reqDER)
	if err != nil {
		t.Fatal(err)
	}
	want := ocsp.StatusSuccessful
	if reg.RouteRequest(parsed) != first {
		want = ocsp.StatusTryLater
	}
	if got := post(); got != want {
		t.Errorf("POST answered %v, but the registry routes to a tenant answering %v", got, want)
	}
	if got := get(); got != want {
		t.Errorf("GET answered %v, but the registry routes to a tenant answering %v", got, want)
	}
}

// TestMemosSkipNameFallbackRoutes: a request whose issuer key hash matches
// no tenant routes by its name hash, here to a tenant whose CA shares the
// name. The tenant that owns the key may register later, so neither memo
// may keep that route: once it registers, the same POST and GET must
// reach it.
func TestMemosSkipNameFallbackRoutes(t *testing.T) {
	fa, fb := newFixture(t), newFixture(t) // two CAs, one subject name
	reg := NewRegistry()
	if err := reg.Register(fa.responder(cachedProfile)); err != nil {
		t.Fatal(err)
	}
	h := NewMultiTenantHandler(reg)
	reqB, idB := fb.request(t)
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(reqB))
		req.Header.Set("Content-Type", ocsp.ContentTypeRequest)
		h.ServeHTTP(rec, req)
		return rec
	}
	status := func(method string, rec *httptest.ResponseRecorder) ocsp.CertStatus {
		single := mustParse(t, rec.Body.Bytes()).Find(idB)
		if single == nil {
			t.Fatalf("%s: response misses the requested serial", method)
		}
		return single.Status
	}
	for range 2 {
		if st := status("POST", post()); st != ocsp.Unknown {
			t.Fatalf("before its tenant registers: POST status %v, want unknown", st)
		}
		if st := status("GET", getRecorder(t, h, reqB)); st != ocsp.Unknown {
			t.Fatalf("before its tenant registers: GET status %v, want unknown", st)
		}
	}

	if err := reg.Register(responder.New("ocsp.other.test", fb.ca, fb.db, fb.clk, cachedProfile)); err != nil {
		t.Fatal(err)
	}
	for method, rec := range map[string]*httptest.ResponseRecorder{"POST": post(), "GET": getRecorder(t, h, reqB)} {
		if st := status(method, rec); st != ocsp.Good {
			t.Errorf("%s after its tenant registered: status %v, want good", method, st)
		}
		if err := mustParse(t, rec.Body.Bytes()).CheckSignatureFrom(fb.ca.Certificate); err != nil {
			t.Errorf("%s after its tenant registered: not signed by its CA: %v", method, err)
		}
	}
}

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
	tenants := func() []*responder.Responder { return []*responder.Responder{r} }
	srv := NewServer(h, WithRoute("/debug/vars", NewDebugVars(reg, tenants)))
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
