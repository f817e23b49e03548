package webserver

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

func TestTable3Matrix(t *testing.T) {
	results, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	byName := map[string]*ExperimentResult{}
	for _, r := range results {
		byName[r.Policy] = r
	}

	apache := byName["apache-2.4.18"]
	// Table 3, Apache column: ✗ (pause conn.), ✓, ✗, ✗.
	if apache.PrefetchesResponse {
		t.Error("Apache must not prefetch")
	}
	if !apache.FirstClientPaused || !apache.FirstClientGotStaple {
		t.Errorf("Apache should pause the first connection and then staple: %+v", apache)
	}
	if !apache.CachesResponses {
		t.Error("Apache caches responses")
	}
	if apache.RespectsNextUpdate {
		t.Error("Apache serves expired responses from cache (bug #62400)")
	}
	if apache.RetainsOnError {
		t.Error("Apache drops the old response on upstream error")
	}

	nginx := byName["nginx-1.13.12"]
	// Table 3, Nginx column: ✗ (no resp. to first client), ✓, ✓, ✓.
	if nginx.PrefetchesResponse {
		t.Error("Nginx must not prefetch")
	}
	if nginx.FirstClientGotStaple {
		t.Error("Nginx gives the first client no staple")
	}
	if nginx.FirstClientPaused {
		t.Error("Nginx does not pause the handshake")
	}
	if !nginx.CachesResponses {
		t.Error("Nginx caches responses")
	}
	if !nginx.RespectsNextUpdate {
		t.Error("Nginx respects nextUpdate")
	}
	if !nginx.RetainsOnError {
		t.Error("Nginx retains the old response on error")
	}

	correct := byName["correct"]
	// The §8 recommendation passes everything.
	if !correct.PrefetchesResponse || !correct.FirstClientGotStaple ||
		!correct.CachesResponses || !correct.RespectsNextUpdate || !correct.RetainsOnError {
		t.Errorf("correct policy should pass all experiments: %+v", correct)
	}
}

// engineFixture builds an engine against a live in-process responder.
type engineFixture struct {
	clk  *clock.Simulated
	leaf *pki.Leaf
	fail bool
	eng  *Engine
}

func newEngineFixture(t *testing.T, policy Policy, validity time.Duration) *engineFixture {
	t.Helper()
	t0 := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(t0)
	ca, err := pki.NewRootCA(pki.Config{Name: "Engine CA", OCSPURL: "http://ocsp.engine.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"engine.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	resp := responder.New("ocsp.engine.test", ca, responderDB(leaf), clk, responder.Profile{Validity: validity, ThisUpdateOffset: time.Second})
	inner, err := ResponderFetcher(resp, leaf)
	if err != nil {
		t.Fatal(err)
	}
	fx := &engineFixture{clk: clk, leaf: leaf}
	fx.eng = NewEngine(leaf, policy, func() ([]byte, error) {
		if fx.fail {
			return nil, errors.New("upstream down")
		}
		return inner()
	}, clk)
	return fx
}

func TestEngineStapleValidatesAgainstOCSP(t *testing.T) {
	fx := newEngineFixture(t, CorrectPolicy(), 4*time.Hour)
	if err := fx.eng.Start(); err != nil {
		t.Fatal(err)
	}
	staple := fx.eng.StapleForHandshake()
	if staple == nil {
		t.Fatal("no staple")
	}
	resp, err := ocsp.ParseResponse(staple)
	if err != nil {
		t.Fatalf("staple does not parse: %v", err)
	}
	if err := resp.CheckSignatureFrom(fx.leaf.Issuer.Certificate); err != nil {
		t.Errorf("staple signature: %v", err)
	}
	if resp.Responses[0].CertID.Serial.Cmp(fx.leaf.Certificate.SerialNumber) != 0 {
		t.Error("staple covers the wrong serial")
	}
}

func TestNginxRateLimitServesExpired(t *testing.T) {
	// §7.2 footnote 28: with validity < 5 minutes, Nginx's refresh rate
	// limit makes clients receive expired cached responses.
	fx := newEngineFixture(t, NginxPolicy(), 2*time.Minute)
	// First client triggers the async fetch.
	if got := fx.eng.StapleForHandshake(); got != nil {
		t.Fatal("first nginx client should get no staple")
	}
	fx.eng.WaitIdle()
	// Second client (validity still good) gets the cached staple.
	fx.clk.Advance(time.Minute)
	if got := fx.eng.StapleForHandshake(); got == nil {
		t.Fatal("second client should get the cached staple")
	}
	// Third client: the response is expired (2 min validity) but the 5
	// minute rate limit blocks a refresh — Nginx staples expired bytes.
	fx.clk.Advance(3 * time.Minute)
	staple := fx.eng.StapleForHandshake()
	if staple == nil {
		t.Fatal("rate-limited nginx should still staple the (expired) cache")
	}
	if !stapleIsExpired(staple, fx.clk.Now()) {
		t.Error("expected an expired staple under rate limiting")
	}
	// After the rate limit lapses, a fresh response appears.
	fx.clk.Advance(5 * time.Minute)
	staple = fx.eng.StapleForHandshake()
	fx.eng.WaitIdle()
	staple = fx.eng.StapleForHandshake()
	if staple == nil || stapleIsExpired(staple, fx.clk.Now()) {
		t.Error("after the rate limit, nginx should staple a fresh response")
	}
}

// TestCorrectPolicyRefetchesHourly: the §8 policy refreshes once its
// hour has passed, as Apache's cache does, instead of waiting for expiry.
func TestCorrectPolicyRefetchesHourly(t *testing.T) {
	fx := newEngineFixture(t, CorrectPolicy(), 4*time.Hour)
	if err := fx.eng.Start(); err != nil {
		t.Fatal(err)
	}
	fx.clk.Advance(59 * time.Minute)
	fx.eng.StapleForHandshake()
	if got := fx.eng.FetchCount(); got != 1 {
		t.Fatalf("fetches within the hour = %d, want 1", got)
	}
	fx.clk.Advance(time.Minute)
	if fx.eng.StapleForHandshake() == nil {
		t.Fatal("no staple after the hourly refresh")
	}
	if got := fx.eng.FetchCount(); got != 2 {
		t.Errorf("fetches after the hour = %d, want 2", got)
	}
}

// TestRetainingEngineKeepsAcceptedStaple: a retaining server whose hourly
// refresh returns a response that is not yet valid keeps stapling the one
// its clients accept.
func TestRetainingEngineKeepsAcceptedStaple(t *testing.T) {
	fx := newEngineFixture(t, StaleServingCDNPolicy(), 24*time.Hour)
	early := responder.New("ocsp.engine.test", fx.leaf.Issuer, responderDB(fx.leaf), fx.clk, responder.Profile{Validity: 24 * time.Hour, ThisUpdateOffset: -30 * time.Minute})
	future, err := ResponderFetcher(early, fx.leaf)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.eng.Start(); err != nil {
		t.Fatal(err)
	}
	first := fx.eng.StapleForHandshake()
	fx.eng.Fetch = future
	fx.clk.Advance(90 * time.Minute)
	got := fx.eng.StapleForHandshake()
	if n := fx.eng.FetchCount(); n != 2 {
		t.Fatalf("fetches = %d, want the hourly refresh to make 2", n)
	}
	if stapleIsExpired(got, fx.clk.Now()) || !bytes.Equal(got, first) {
		t.Error("the refresh replaced the accepted staple with one clients reject now")
	}
}

func TestApacheStaplesUpstreamErrorResponse(t *testing.T) {
	// §7.2: when the responder returns an OCSP error (e.g. tryLater),
	// Apache serves the error response itself.
	t0 := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(t0)
	ca, err := pki.NewRootCA(pki.Config{Name: "TryLater CA", OCSPURL: "http://ocsp.trylater.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"trylater.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	resp := responder.New("ocsp.trylater.test", ca, db, clk, responder.Profile{ErrorStatus: ocsp.StatusTryLater})
	fetch, err := ResponderFetcher(resp, leaf)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(leaf, ApachePolicy(), fetch, clk)
	staple := eng.StapleForHandshake() // paused first connection
	if staple == nil {
		t.Fatal("Apache should staple the error response bytes")
	}
	parsed, err := ocsp.ParseResponse(staple)
	if err != nil {
		t.Fatalf("stapled error response should parse: %v", err)
	}
	if parsed.Status != ocsp.StatusTryLater {
		t.Errorf("stapled status = %v, want tryLater", parsed.Status)
	}
}

func TestEngineTLSConfigErrors(t *testing.T) {
	e := NewEngine(nil, ApachePolicy(), nil, nil)
	if _, err := e.TLSConfig(); err == nil {
		t.Error("TLSConfig without a leaf should fail")
	}
}

func TestHTTPFetcherAgainstRealServer(t *testing.T) {
	// End-to-end over real HTTP: responder behind httptest, fetched by
	// HTTPFetcher, stapled by the engine, verified by the client.
	fx := newEngineFixture(t, CorrectPolicy(), 4*time.Hour)
	// Swap in an HTTP fetcher against a real listener.
	srvResp := responderForLeaf(t, fx)
	fetch, stop := httpFetcherFor(t, fx.leaf, srvResp)
	defer stop()
	fx.eng.Fetch = fetch
	if err := fx.eng.Start(); err != nil {
		t.Fatal(err)
	}
	staple := fx.eng.StapleForHandshake()
	if staple == nil {
		t.Fatal("no staple over real HTTP")
	}
	if _, err := ocsp.ParseResponse(staple); err != nil {
		t.Fatal(err)
	}
}

func TestFetcherConstructorsValidate(t *testing.T) {
	ca, err := pki.NewRootCA(pki.Config{Name: "NoURL CA"}) // no OCSP URL
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"nourl.test"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := HTTPFetcher(nil, leaf); err == nil {
		t.Error("HTTPFetcher should reject a leaf without an OCSP URL")
	}
}
