package scanner

import (
	"bytes"
	"context"
	"crypto"
	"errors"
	"io"
	"math/big"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

// windowCached is the profile of a pre-generating responder: one signed
// response per serial per update window, which is what most lookups of a
// campaign hit.
func windowCached() responder.Profile {
	return responder.NewProfile(responder.WithValidity(24*time.Hour), responder.WithCachedResponses(0))
}

// maxCachedScanAllocs bounds the allocations of one window-cached lookup
// through netsim, ocspserver and the responder. What remains is per
// exchange by construction: the request's shallow copy and its body
// reader with its closer (three), the simulated exchange's recorder with
// its Result, its header map and its body buffer (three), and the
// handler's response header and request-body limit (two).
const maxCachedScanAllocs = 8

// TestCachedScanAllocs pins the allocation count of the lookup a campaign
// performs for every (vantage, target) pair once the responder has a
// signed response for the window and the client has parsed and verified
// its bytes.
func TestCachedScanAllocs(t *testing.T) {
	w := newWorld(t, windowCached())
	c := w.client()
	p := c.newProbe(w.target)
	ctx := context.Background()
	v, at := oregon(), w.clk.Now()
	if obs := c.scanProbe(ctx, c.Retry, v, at, p); obs.Class != ClassOK {
		t.Fatalf("warm-up scan class = %v", obs.Class)
	}
	n := testing.AllocsPerRun(200, func() {
		c.scanProbe(ctx, c.Retry, v, at, p)
	})
	t.Logf("%.0f allocs per window-cached lookup", n)
	// The handler's pooled request buffer makes the count vary under the
	// race detector; the bound is a normal build's.
	if n > maxCachedScanAllocs && !raceEnabled {
		t.Errorf("window-cached lookup allocates %.0f times, want <= %d", n, maxCachedScanAllocs)
	}
}

// BenchmarkScanCached is the campaign's steady-state lookup: a prepared
// probe against a window-cached responder over the simulated network,
// with the body already parsed and verified.
func BenchmarkScanCached(b *testing.B) {
	w := newWorld(b, windowCached())
	c := w.client()
	p := c.newProbe(w.target)
	ctx := context.Background()
	v, at := oregon(), w.clk.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if obs := c.scanProbe(ctx, c.Retry, v, at, p); obs.Class != ClassOK {
			b.Fatalf("class = %v", obs.Class)
		}
	}
}

// TestVerifyCacheDistinguishesIssuers serves one body, signed by CA A and
// covering the same serial under A and under B, from two responder hosts.
// Roots from pki.NewRootCA all carry serial 1, so a verdict cache keyed by
// the issuer's serial hands B the verdict it cached for A. The lookup
// against B must fail signature validation.
func TestVerifyCacheDistinguishesIssuers(t *testing.T) {
	caA, err := pki.NewRootCA(pki.Config{Name: "Issuer A"})
	if err != nil {
		t.Fatal(err)
	}
	caB, err := pki.NewRootCA(pki.Config{Name: "Issuer B"})
	if err != nil {
		t.Fatal(err)
	}
	if caA.Certificate.SerialNumber.Cmp(caB.Certificate.SerialNumber) != 0 {
		t.Fatalf("roots have serials %v and %v; the test needs them equal",
			caA.Certificate.SerialNumber, caB.Certificate.SerialNumber)
	}
	serial := big.NewInt(1001)
	var singles []ocsp.SingleResponse
	for _, ca := range []*pki.CA{caA, caB} {
		id, err := ocsp.NewCertIDForSerial(serial, ca.Certificate, crypto.SHA1)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, ocsp.SingleResponse{
			CertID: id, Status: ocsp.Good, ThisUpdate: t0, NextUpdate: t0.Add(24 * time.Hour),
			Reason: pkixutil.ReasonAbsent,
		})
	}
	body, err := ocsp.CreateResponse(&ocsp.ResponderTemplate{Signer: caA.Key, Certificate: caA.Certificate}, t0, singles, nil)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ocsp.ParseResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if err := parsed.CheckSignatureFrom(caB.Certificate); err == nil {
		t.Fatal("a body signed by A verifies against B")
	}

	n := netsim.New()
	serve := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.Write(body) })
	n.RegisterHost("ocsp.a.test", "", serve)
	n.RegisterHost("ocsp.b.test", "", serve)
	c := &Client{Transport: n}
	ctx := context.Background()
	scan := func(host string, ca *pki.CA) FailureClass {
		return c.Scan(ctx, oregon(), t0, Target{
			ResponderURL: "http://" + host, Responder: host, Issuer: ca.Certificate, Serial: serial,
		}).Class
	}
	if got := scan("ocsp.a.test", caA); got != ClassOK {
		t.Fatalf("lookup against A: class %v, want ok", got)
	}
	if got := scan("ocsp.b.test", caB); got != ClassSignature {
		t.Errorf("lookup against B after A: class %v, want %v", got, ClassSignature)
	}
}

// TestRealTransportRetriesResendBody sends POST lookups with retries over
// real sockets to a server that answers 503 twice and then 200. Every
// attempt sends a copy of the probe's one request, and the server must
// receive the whole request DER each time, not the drained reader of an
// earlier attempt. The concurrent half shares two probes among eight
// goroutines, as a campaign's workers do.
func TestRealTransportRetriesResendBody(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	leaf2, err := w.ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"www2.scan.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	w.db.AddIssued(leaf2.Certificate.SerialNumber, leaf2.Certificate.NotAfter)
	inner := ocspserver.NewHandler(responder.New("ocsp.scan.test", w.ca, w.db, w.clk, responder.Profile{}))

	var (
		mu       sync.Mutex
		requests = map[string]int{} // by request body
		ders     = map[string]bool{}
		short    int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		mu.Lock()
		known := err == nil && ders[string(body)]
		requests[string(body)]++
		n := requests[string(body)]
		if !known {
			short++
		}
		mu.Unlock()
		switch {
		case !known:
			http.Error(rw, "not a probe's request", http.StatusBadRequest)
		case n%3 != 0:
			http.Error(rw, "busy", http.StatusServiceUnavailable)
		default:
			req.Body = io.NopCloser(bytes.NewReader(body))
			inner.ServeHTTP(rw, req)
		}
	}))
	defer srv.Close()

	c := &Client{Transport: &RealTransport{Client: srv.Client()}}
	policy := RetryPolicy{Attempts: 3, PerAttemptTimeout: 10 * time.Second, BaseBackoff: time.Millisecond}
	var probes []*probe
	for _, serial := range []*big.Int{w.leaf.Certificate.SerialNumber, leaf2.Certificate.SerialNumber} {
		tgt := w.target
		tgt.ResponderURL, tgt.Serial = srv.URL, serial
		p := c.newProbe(tgt)
		body, err := p.req.GetBody()
		if err != nil {
			t.Fatal(err)
		}
		der, err := io.ReadAll(body)
		if err != nil || len(der) == 0 {
			t.Fatalf("probe request body: %d bytes, %v", len(der), err)
		}
		ders[string(der)] = true
		probes = append(probes, p)
	}
	ctx := context.Background()

	obs := c.scanProbe(ctx, policy, oregon(), t0, probes[0])
	if obs.Class != ClassHTTPStatus || obs.HTTPStatus != http.StatusServiceUnavailable ||
		obs.Attempts != 3 || obs.FinalClass != ClassOK || !obs.Salvaged {
		t.Fatalf("lookup: class %v (HTTP %d), %d attempts, final %v, salvaged %v; want http-status (HTTP 503), 3 attempts, final ok, salvaged",
			obs.Class, obs.HTTPStatus, obs.Attempts, obs.FinalClass, obs.Salvaged)
	}

	const workers, lookups = 8, 6
	var (
		wg       sync.WaitGroup
		attempts atomic.Int64
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(p *probe) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				o := c.scanProbe(ctx, policy, oregon(), t0, p)
				attempts.Add(int64(o.Attempts))
				if o.FinalClass != ClassOK && (o.FinalClass != ClassHTTPStatus || o.Attempts != 3) {
					t.Errorf("lookup ended %v after %d attempts, want ok or 3 attempts of 503", o.FinalClass, o.Attempts)
				}
			}
		}(probes[g%len(probes)])
	}
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if short != 0 {
		t.Errorf("%d attempts reached the server without the whole request DER", short)
	}
	total := 0
	for _, n := range requests {
		total += n
	}
	if want := 3 + int(attempts.Load()); total != want {
		t.Errorf("server saw %d requests, lookups made %d attempts", total, want)
	}
}

// TestRealTransportCookieJarKeepsSharedHeader scans through a client with
// a cookie jar, which adds its cookies to the request it sends. The probe's
// request, whose Header every lookup of the target shares, must stay
// without cookies, and each request must carry the jar's cookie once.
func TestRealTransportCookieJarKeepsSharedHeader(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	var (
		mu      sync.Mutex
		cookies []int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		mu.Lock()
		cookies = append(cookies, len(req.Cookies()))
		mu.Unlock()
		http.SetCookie(rw, &http.Cookie{Name: "session", Value: "1"})
		http.Error(rw, "busy", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	jar, err := cookiejar.New(nil)
	if err != nil {
		t.Fatal(err)
	}
	client := srv.Client()
	client.Jar = jar
	c := &Client{Transport: &RealTransport{Client: client}}
	tgt := w.target
	tgt.ResponderURL = srv.URL
	p := c.newProbe(tgt)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				c.scanProbe(context.Background(), c.Retry, oregon(), t0, p)
			}
		}()
	}
	wg.Wait()
	if got := p.req.Header.Values("Cookie"); len(got) != 0 {
		t.Errorf("the probe's shared request gained cookies: %q", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, n := range cookies {
		if n > 1 {
			t.Errorf("request %d carried %d cookies, want at most 1", i, n)
		}
	}
}

// TestScanUnparseableURLIsDNS keeps the classification of a responder URL
// that does not parse: every lookup of the target, by either method, is a
// DNS failure, as it was when each lookup built its own request.
func TestScanUnparseableURLIsDNS(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	tgt := w.target
	tgt.ResponderURL = "http://[::1"
	for _, method := range []string{http.MethodPost, http.MethodGet} {
		c := w.client()
		c.Method = method
		p := c.newProbe(tgt)
		for i := 0; i < 3; i++ {
			if got := c.scanProbe(context.Background(), c.Retry, oregon(), t0, p).Class; got != ClassDNS {
				t.Errorf("%s lookup %d: class %v, want %v", method, i, got, ClassDNS)
			}
		}
		if got := c.Scan(context.Background(), oregon(), t0, tgt).Class; got != ClassDNS {
			t.Errorf("%s Scan: class %v, want %v", method, got, ClassDNS)
		}
	}
}

// hijacked serves a raw HTTP/1.1 response and closes the connection, so a
// test can send a response whose body stops short of its framing.
func hijacked(raw string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := http.NewResponseController(w).Hijack()
		if err != nil {
			panic(err)
		}
		defer conn.Close()
		buf.WriteString(raw)
		buf.Flush()
	}
}

// TestRealTransportBodyErrors checks RealTransport's body handling: a body
// cut off before its declared end is a transport error (ClassTCP), and a
// body over the 1 MiB cap is read up to just past the cap and parsed.
func TestRealTransportBodyErrors(t *testing.T) {
	cases := []struct {
		name      string
		handler   http.Handler
		wantErr   bool
		wantLen   int
		wantClass FailureClass
	}{
		{
			name:      "complete body",
			handler:   hijacked("HTTP/1.1 200 OK\r\nContent-Length: 10\r\nConnection: close\r\n\r\n0123456789"),
			wantLen:   10,
			wantClass: ClassASN1,
		},
		{
			name:      "content-length body cut short",
			handler:   hijacked("HTTP/1.1 200 OK\r\nContent-Length: 1000\r\n\r\n0123456789"),
			wantErr:   true,
			wantClass: ClassTCP,
		},
		{
			name:      "chunked body cut short",
			handler:   hijacked("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n400\r\n0123456789"),
			wantErr:   true,
			wantClass: ClassTCP,
		},
		{
			name: "body over the cap",
			handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.Write(bytes.Repeat([]byte("x"), 2*maxBodyBytes))
			}),
			wantLen:   maxBodyBytes + 1,
			wantClass: ClassASN1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.handler)
			defer srv.Close()
			tr := &RealTransport{Client: srv.Client()}
			req, err := http.NewRequest(http.MethodGet, srv.URL, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tr.Do(oregon(), t0, req)
			if tc.wantErr {
				if err == nil || !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("Do: err = %v (body %d bytes), want an unexpected-EOF error", err, len(bodyOf(res)))
				}
			} else {
				if err != nil {
					t.Fatalf("Do: %v", err)
				}
				if len(res.Body) != tc.wantLen {
					t.Errorf("body is %d bytes, want %d", len(res.Body), tc.wantLen)
				}
			}

			c := &Client{Transport: tr}
			w := newWorld(t, responder.Profile{})
			tgt := w.target
			tgt.ResponderURL = srv.URL
			if got := c.Scan(context.Background(), oregon(), t0, tgt).Class; got != tc.wantClass {
				t.Errorf("scan class = %v, want %v", got, tc.wantClass)
			}
		})
	}
}

func bodyOf(res *netsim.Result) []byte {
	if res == nil {
		return nil
	}
	return res.Body
}

// TestParseMaxAge covers Cache-Control max-age extraction. Directive
// names compare case-insensitively and arguments may be quoted (RFC 9111
// §5.2); the argument is delta-seconds, 1*DIGIT, saturating at 2^31 on
// 64-bit hosts (§1.2.2); an invalid occurrence is skipped for a later
// valid one.
func TestParseMaxAge(t *testing.T) {
	cases := []struct {
		header string
		want   int
	}{
		{"", -1},
		{"max-age=600", 600},
		{"Max-Age=600", 600},
		{"MAX-AGE=7", 7},
		{"public, max-age=300, must-revalidate", 300},
		{"public,  Max-Age=42 ,no-transform", 42},
		{"no-cache", -1},
		{"s-maxage=5", -1},
		{"max-age=", -1},
		{"max-age=soon", -1},
		{"max-agex=5", -1},
		{"max-age=-60", -1},
		{"max-age=+60", -1},
		{"max-age= 60", -1},
		{"max-age=6 0", -1},
		{"max-age=0x10", -1},
		{`max-age="60"`, 60},
		{`max-age="-60"`, -1},
		{`max-age="`, -1},
		{`max-age=""`, -1},
		{"max-age=0", 0},
		{"max-age=007", 7},
		{"max-age=2147483647", 2147483647},
		{"max-age=2147483648", maxDeltaSeconds},
		{"max-age=2147483649", maxDeltaSeconds},
		{"max-age=99999999999999999999", maxDeltaSeconds},
		{"max-age=-60, max-age=30", 30},
		{"max-age=10, max-age=30", 10},
	}
	for _, tc := range cases {
		h := http.Header{}
		if tc.header != "" {
			h.Set("Cache-Control", tc.header)
		}
		if got := parseMaxAge(h); got != tc.want {
			t.Errorf("parseMaxAge(%q) = %d, want %d", tc.header, got, tc.want)
		}
	}
}
