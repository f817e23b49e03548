package ocspserver

import (
	"bytes"
	"crypto"
	"encoding/base64"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

var t0 = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)

type fixture struct {
	ca   *pki.CA
	db   *responder.DB
	clk  *clock.Simulated
	leaf *pki.Leaf
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	ca, err := pki.NewRootCA(pki.Config{Name: "Serving Tier Test CA", OCSPURL: "http://ocsp.tier.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"tier.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	return &fixture{ca: ca, db: db, clk: clock.NewSimulated(t0), leaf: leaf}
}

func (f *fixture) responder(p responder.Profile) *responder.Responder {
	return responder.New("ocsp.tier.test", f.ca, f.db, f.clk, p)
}

func (f *fixture) request(t testing.TB) ([]byte, ocsp.CertID) {
	t.Helper()
	req, err := ocsp.NewRequest(f.leaf.Certificate, f.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	der, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return der, req.CertIDs[0]
}

func mustParse(t testing.TB, der []byte) *ocsp.Response {
	t.Helper()
	resp, err := ocsp.ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	return resp
}

func readAll(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// doGET performs a GET exchange against the handler over real HTTP.
func doGET(t *testing.T, h http.Handler, reqDER []byte) *http.Response {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/" + ocsp.EncodeGETPath(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func TestServeHTTPPostAndGet(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{}))
	reqDER, id := f.request(t)

	srv := httptest.NewServer(h)
	defer srv.Close()

	// POST.
	post, err := http.Post(srv.URL, ocsp.ContentTypeRequest, bytes.NewReader(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, post)
	if post.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", post.StatusCode)
	}
	if ct := post.Header.Get("Content-Type"); ct != ocsp.ContentTypeResponse {
		t.Errorf("content type %q", ct)
	}
	resp := mustParse(t, body)
	if resp.Find(id) == nil {
		t.Error("POST response misses requested serial")
	}

	// GET.
	get, err := http.Get(srv.URL + "/" + ocsp.EncodeGETPath(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, get)
	resp = mustParse(t, body)
	if resp.Find(id) == nil {
		t.Error("GET response misses requested serial")
	}

	// A GET path that is not base64 at all gets a well-formed OCSP
	// malformedRequest answer, not an HTTP error (request hardening: a
	// hostile client must not look like a responder outage).
	bad, err := http.Get(srv.URL + "/@@@@")
	if err != nil {
		t.Fatal(err)
	}
	badBody := readAll(t, bad)
	if bad.StatusCode != http.StatusOK {
		t.Fatalf("malformed GET status %d, want 200 + OCSP error", bad.StatusCode)
	}
	badResp := mustParse(t, badBody)
	if badResp.Status != ocsp.StatusMalformedRequest {
		t.Errorf("malformed GET OCSP status = %v, want malformedRequest", badResp.Status)
	}
}

// TestGETEncodingVariants covers the RFC 5019 GET deviations seen from
// real clients: url-safe alphabet, stripped padding, and percent-escaped
// '/', '+', and '='. All must decode to the same answer the canonical
// encoding gets.
func TestGETEncodingVariants(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{}))
	reqDER, id := f.request(t)

	srv := httptest.NewServer(h)
	defer srv.Close()

	std := base64.StdEncoding.EncodeToString(reqDER)
	variants := map[string]string{
		"canonical":        ocsp.EncodeGETPath(reqDER),
		"plain-std":        std,
		"urlsafe":          base64.URLEncoding.EncodeToString(reqDER),
		"stripped-padding": strings.TrimRight(std, "="),
		"urlsafe-stripped": base64.RawURLEncoding.EncodeToString(reqDER),
		"escape-all": strings.NewReplacer(
			"/", "%2F", "+", "%2B", "=", "%3D",
		).Replace(std),
	}
	for name, path := range variants {
		t.Run(name, func(t *testing.T) {
			// Build the URL by hand: url.Parse would keep the escapes,
			// which is exactly what a client emitting them does.
			u, err := url.Parse(srv.URL + "/" + path)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(&http.Request{Method: http.MethodGet, URL: u})
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			parsed := mustParse(t, body)
			if parsed.Status != ocsp.StatusSuccessful {
				t.Fatalf("OCSP status %v", parsed.Status)
			}
			if parsed.Find(id) == nil {
				t.Error("response misses requested serial")
			}
		})
	}
}

// TestGETPOSTByteIdentity: with a caching profile, the same request over
// GET and POST must serve the identical signed bytes — the serving tier
// only frames, it never re-signs.
func TestGETPOSTByteIdentity(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{CacheResponses: true, Validity: 24 * time.Hour}))
	reqDER, _ := f.request(t)

	srv := httptest.NewServer(h)
	defer srv.Close()

	get, err := http.Get(srv.URL + "/" + ocsp.EncodeGETPath(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	getBody := readAll(t, get)
	post, err := http.Post(srv.URL, ocsp.ContentTypeRequest, bytes.NewReader(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	postBody := readAll(t, post)
	if !bytes.Equal(getBody, postBody) {
		t.Error("GET and POST served different bytes for the same request")
	}
}

func TestMethodAndMediaTypePolicing(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{}))
	reqDER, _ := f.request(t)

	srv := httptest.NewServer(h)
	defer srv.Close()

	// Wrong method.
	req, _ := http.NewRequest(http.MethodPut, srv.URL, bytes.NewReader(reqDER))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT status %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "POST") {
		t.Errorf("Allow = %q", allow)
	}

	// Wrong media type.
	resp, err = http.Post(srv.URL, "text/plain", bytes.NewReader(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain POST status %d, want 415", resp.StatusCode)
	}

	// Media type with parameters is tolerated.
	resp, err = http.Post(srv.URL, ocsp.ContentTypeRequest+"; charset=utf-8", bytes.NewReader(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("parameterized media type status %d, want 200", resp.StatusCode)
	}
}

// TestOversizeRequests pins both size caps at their production values:
// a request DER of DefaultMaxRequestBytes+1 bytes is refused with 413
// whether it arrives as a POST body or as a decoded GET path, a DER of
// exactly DefaultMaxRequestBytes reaches the responder, and a raw GET
// path past maxGETPathBytes is refused with 414 before any decoding.
func TestOversizeRequests(t *testing.T) {
	f := newFixture(t)
	srv := httptest.NewServer(NewHandler(f.responder(responder.Profile{})))
	defer srv.Close()

	status := func(resp *http.Response, err error) int {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(n int) int {
		return status(http.Post(srv.URL, ocsp.ContentTypeRequest, bytes.NewReader(make([]byte, n))))
	}
	get := func(path string) int {
		return status(http.Get(srv.URL + "/" + path))
	}
	getDER := func(n int) int {
		return get(base64.StdEncoding.EncodeToString(make([]byte, n)))
	}
	// At the cap the zero bytes reach the responder, which answers an
	// OCSP malformedRequest over 200.
	for _, tc := range []struct {
		name string
		got  int
		want int
	}{
		{"POST body past the cap", post(DefaultMaxRequestBytes + 1), http.StatusRequestEntityTooLarge},
		{"POST body at the cap", post(DefaultMaxRequestBytes), http.StatusOK},
		{"GET DER past the cap", getDER(DefaultMaxRequestBytes + 1), http.StatusRequestEntityTooLarge},
		{"GET DER at the cap", getDER(DefaultMaxRequestBytes), http.StatusOK},
		// The raw path includes its leading '/'.
		{"raw GET path past maxGETPathBytes", get(strings.Repeat("A", maxGETPathBytes)), http.StatusRequestURITooLong},
		{"raw GET path at maxGETPathBytes", get(strings.Repeat("A", maxGETPathBytes-1)), http.StatusRequestEntityTooLarge},
	} {
		if tc.got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestSHA256CertID: a CertID hashed with SHA-256, as modern stacks send
// it, is answered good and signed by the CA, by POST and by GET. Its GET
// path memoizes apart from the SHA-1 spelling of the same serial, and a
// fast-path hit serves the SHA-256 response's own bytes.
func TestSHA256CertID(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(cachedProfile))
	req, err := ocsp.NewRequest(f.leaf.Certificate, f.ca.Certificate, crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sha1DER, _ := f.request(t)

	post := httptest.NewRecorder()
	httpReq := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(reqDER))
	httpReq.Header.Set("Content-Type", ocsp.ContentTypeRequest)
	h.ServeHTTP(post, httpReq)
	fill := getRecorder(t, h, reqDER)
	getRecorder(t, h, sha1DER)
	hit := getRecorder(t, h, reqDER)

	for _, tc := range []struct {
		name string
		body []byte
	}{{"POST", post.Body.Bytes()}, {"GET", fill.Body.Bytes()}, {"GET fast-path hit", hit.Body.Bytes()}} {
		resp := mustParse(t, tc.body)
		single := resp.Find(req.CertIDs[0])
		if single == nil || single.Status != ocsp.Good {
			t.Errorf("%s: no good answer for the SHA-256 CertID: %+v", tc.name, single)
		}
		if err := resp.CheckSignatureFrom(f.ca.Certificate); err != nil {
			t.Errorf("%s: not signed by the CA: %v", tc.name, err)
		}
	}
	if hits, misses, _ := h.FastPathStats(); hits != 1 || misses != 2 {
		t.Errorf("FastPathStats = %d hits, %d misses; want 1, 2", hits, misses)
	}
	if !bytes.Equal(hit.Body.Bytes(), fill.Body.Bytes()) {
		t.Error("the fast-path hit differs from the SHA-256 fill")
	}
}

func TestMalformedDERIsOCSPError(t *testing.T) {
	// Valid base64 of invalid DER: the responder core answers
	// malformedRequest; the tier must pass that through as HTTP 200.
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{}))

	srv := httptest.NewServer(h)
	defer srv.Close()

	junk := base64.StdEncoding.EncodeToString([]byte("not DER at all"))
	resp, err := http.Get(srv.URL + "/" + junk)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if mustParse(t, body).Status != ocsp.StatusMalformedRequest {
		t.Error("want OCSP malformedRequest")
	}
}

func TestRFC5019CacheHeadersOnGET(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{Validity: 24 * time.Hour}))
	reqDER, _ := f.request(t)
	resp := doGET(t, h, reqDER)

	cc := resp.Header.Get("Cache-Control")
	if cc == "" {
		t.Fatal("GET response missing Cache-Control")
	}
	if !strings.Contains(cc, "must-revalidate") || !strings.Contains(cc, "public") {
		t.Errorf("Cache-Control = %q", cc)
	}
	// max-age ≈ validity minus the 1h default thisUpdate margin.
	var maxAge int
	for _, part := range strings.Split(cc, ",") {
		part = strings.TrimSpace(part)
		if rest, ok := strings.CutPrefix(part, "max-age="); ok {
			maxAge, _ = strconv.Atoi(rest)
		}
	}
	want := int((23 * time.Hour).Seconds())
	if maxAge != want {
		t.Errorf("max-age = %d, want %d", maxAge, want)
	}
	if resp.Header.Get("Expires") == "" || resp.Header.Get("Last-Modified") == "" {
		t.Error("Expires/Last-Modified missing")
	}
	etag := resp.Header.Get("ETag")
	if len(etag) != 42 { // quoted SHA-1 hex
		t.Errorf("ETag = %q", etag)
	}
	// The Expires header must equal nextUpdate.
	exp, err := http.ParseTime(resp.Header.Get("Expires"))
	if err != nil {
		t.Fatal(err)
	}
	if !exp.Equal(t0.Add(23 * time.Hour)) {
		t.Errorf("Expires = %v, want %v", exp, t0.Add(23*time.Hour))
	}
}

func TestNoCacheHeadersOnPOST(t *testing.T) {
	// RFC 5019 caching applies to GET; POST responses are not cacheable.
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{Validity: 24 * time.Hour}))
	reqDER, _ := f.request(t)
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := http.Post(srv.URL, ocsp.ContentTypeRequest, bytes.NewReader(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("Cache-Control") != "" {
		t.Error("POST response must not carry Cache-Control")
	}
}

func TestNoCacheHeadersForBlankNextUpdate(t *testing.T) {
	// A response with no expiry must not invite HTTP caching.
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{BlankNextUpdate: true}))
	reqDER, _ := f.request(t)
	resp := doGET(t, h, reqDER)
	if resp.Header.Get("Cache-Control") != "" {
		t.Error("blank-nextUpdate response must not carry Cache-Control")
	}
}

func TestNoCacheHeadersForMalformed(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{Malformed: responder.MalformedZero}))
	reqDER, _ := f.request(t)
	resp := doGET(t, h, reqDER)
	if resp.Header.Get("Cache-Control") != "" {
		t.Error("malformed bodies must not carry caching headers")
	}
}

func TestETagStableWithinWindow(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(responder.Profile{
		CacheResponses: true, Validity: 12 * time.Hour, UpdateInterval: 6 * time.Hour,
	}))
	reqDER, _ := f.request(t)
	// Update windows carry a per-responder phase, so a boundary may fall
	// anywhere; three closely spaced GETs must contain at least one
	// same-window (identical-ETag) adjacent pair, since two boundaries
	// cannot occur within two minutes of a six-hour interval.
	var etags []string
	for i := 0; i < 3; i++ {
		resp := doGET(t, h, reqDER)
		if etag := resp.Header.Get("ETag"); etag == "" {
			t.Fatal("missing ETag")
		} else {
			etags = append(etags, etag)
		}
		f.clk.Advance(time.Minute)
	}
	if etags[0] != etags[1] && etags[1] != etags[2] {
		t.Errorf("no stable adjacent pair: %v", etags)
	}
	// A later window produces new bytes and a new ETag.
	f.clk.Advance(13 * time.Hour)
	later := doGET(t, h, reqDER)
	if later.Header.Get("ETag") == etags[2] {
		t.Error("new update window should change the ETag")
	}
}
