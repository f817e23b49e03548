package webserver

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/scanner"
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

// engineFixture builds an engine whose responder is served by the OCSP
// handler at the leaf's AIA host on a simulated network; tests take the
// responder down with netsim rules.
type engineFixture struct {
	clk  *clock.Simulated
	net  *netsim.Network
	leaf *pki.Leaf
	eng  *Engine
}

// engineOCSPHost is the fixture's responder host, named in its leaf's AIA.
const engineOCSPHost = "ocsp.engine.test"

func newEngineFixture(t *testing.T, policy Policy, validity time.Duration) *engineFixture {
	t.Helper()
	clk := clock.NewSimulated(tt0)
	ca, err := pki.NewRootCA(pki.Config{Name: "Engine CA", OCSPURL: "http://" + engineOCSPHost})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"engine.test"}, NotBefore: tt0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	fx := &engineFixture{clk: clk, net: netsim.New(), leaf: leaf}
	fx.serve(responder.Profile{Validity: validity, ThisUpdateOffset: time.Second})
	fetch, err := NewFetcher(fx.net, netsim.Vantage{}, clk, leaf)
	if err != nil {
		t.Fatal(err)
	}
	fx.eng = NewEngine(leaf, policy, fetch, clk)
	return fx
}

// serve (re-)registers the fixture's responder host with a responder that
// knows only the leaf, as good, and signs with profile.
func (fx *engineFixture) serve(profile responder.Profile) {
	db := responder.NewDB()
	db.AddIssued(fx.leaf.Certificate.SerialNumber, fx.leaf.Certificate.NotAfter)
	r := responder.New(engineOCSPHost, fx.leaf.Issuer, db, fx.clk, profile)
	fx.net.RegisterHost(engineOCSPHost, "", ocspserver.NewHandler(r))
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
	if !stapleIsExpired(staple, fx.leaf, fx.clk.Now()) {
		t.Error("expected an expired staple under rate limiting")
	}
	// After the rate limit lapses, a fresh response appears.
	fx.clk.Advance(5 * time.Minute)
	staple = fx.eng.StapleForHandshake()
	fx.eng.WaitIdle()
	staple = fx.eng.StapleForHandshake()
	if staple == nil || stapleIsExpired(staple, fx.leaf, fx.clk.Now()) {
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
	if err := fx.eng.Start(); err != nil {
		t.Fatal(err)
	}
	first := fx.eng.StapleForHandshake()
	fx.serve(responder.Profile{Validity: 24 * time.Hour, ThisUpdateOffset: -30 * time.Minute})
	fx.clk.Advance(90 * time.Minute)
	got := fx.eng.StapleForHandshake()
	if n := fx.eng.FetchCount(); n != 2 {
		t.Fatalf("fetches = %d, want the hourly refresh to make 2", n)
	}
	if stapleIsExpired(got, fx.leaf, fx.clk.Now()) || !bytes.Equal(got, first) {
		t.Error("the refresh replaced the accepted staple with one clients reject now")
	}
}

func TestApacheStaplesUpstreamErrorResponse(t *testing.T) {
	// §7.2: when the responder returns an OCSP error (e.g. tryLater),
	// Apache serves the error response itself.
	fx := newEngineFixture(t, ApachePolicy(), 0)
	fx.serve(responder.Profile{ErrorStatus: ocsp.StatusTryLater})
	staple := fx.eng.StapleForHandshake() // paused first connection
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
	// End-to-end over real HTTP: the responder behind a loopback listener
	// that the leaf's AIA names, fetched over RealTransport, stapled by
	// the engine, verified by the client.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewSimulated(tt0)
	ca, err := pki.NewRootCA(pki.Config{Name: "Loopback CA", OCSPURL: "http://" + ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"loopback.test"}, NotBefore: tt0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	srv := httptest.NewUnstartedServer(ocspserver.NewHandler(responder.New("loopback", ca, db, clk, responder.Profile{Validity: 4 * time.Hour})))
	srv.Listener.Close()
	srv.Listener = ln
	srv.Start()
	defer srv.Close()

	fetch, err := NewFetcher(&scanner.RealTransport{Client: srv.Client()}, netsim.Vantage{}, clk, leaf)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(leaf, CorrectPolicy(), fetch, clk)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	staple := eng.StapleForHandshake()
	if staple == nil {
		t.Fatal("no staple over real HTTP")
	}
	if stapleIsExpired(staple, leaf, clk.Now()) {
		t.Error("the staple fetched over real HTTP does not verify for the leaf")
	}
}

// TestNewFetcherRejectsHTTPErrors: a status other than 200 is an error,
// and a transport failure comes back as the transport's own error.
func TestNewFetcherRejectsHTTPErrors(t *testing.T) {
	fx := newEngineFixture(t, CorrectPolicy(), 4*time.Hour)
	fx.net.AddRule(&netsim.Rule{Host: engineOCSPHost, Kind: netsim.FailHTTP, HTTPStatus: http.StatusServiceUnavailable,
		Windows: []netsim.Window{{To: tt0.Add(time.Hour)}}})
	fx.net.AddRule(&netsim.Rule{Host: engineOCSPHost, Kind: netsim.FailTCP})
	if _, err := fx.eng.Fetch(); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("fetch from a responder answering 503: err = %v, want an HTTP 503 error", err)
	}
	fx.clk.Advance(time.Hour)
	var nerr *netsim.Error
	if _, err := fx.eng.Fetch(); !errors.As(err, &nerr) || nerr.Kind != netsim.FailTCP {
		t.Errorf("fetch from an unreachable responder: err = %v, want the netsim TCP error", err)
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
	if _, err := NewFetcher(netsim.New(), netsim.Vantage{}, clock.NewSimulated(tt0), leaf); err == nil {
		t.Error("NewFetcher should reject a leaf without an OCSP URL")
	}
}
