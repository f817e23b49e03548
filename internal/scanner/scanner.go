// Package scanner implements the paper's measurement client (§5.1): it
// issues OCSP requests for selected certificates from each vantage point,
// classifies every failure the way the paper does — DNS lookup failures,
// TCP connection failures, HTTP 4xx/5xx, invalid TLS certificates on HTTPS
// responder URLs, ASN.1-unparseable bodies, serial-number mismatches, and
// invalid signatures — and records the response-quality metrics behind
// Figures 5 through 9 (certificate and serial counts, validity periods,
// thisUpdate margins, producedAt deltas).
//
// The same client runs against the simulated network (campaigns covering
// months of virtual time) or a real *http.Client (live scans via
// cmd/ocspscan).
//
// Campaigns are built with NewCampaign(client, clock, opts...) and run by
// Campaign.Run, one round at a time: the round's lookups are scanned on up
// to WithWorkers goroutines, then the round is folded into every
// aggregator in job order on Run's goroutine and persisted (WithStore),
// so the results are identical at every worker count. Scan takes a
// context.Context and an optional RetryPolicy; retries cover only
// transient failure classes, and the returned Observation always
// describes the FIRST attempt — matching the paper's single-attempt
// methodology — with retry outcomes reported separately via Attempts,
// FinalClass, Salvaged, and Campaign.Stats(). See DESIGN.md §6 for the
// engine.
//
// Everything about a target that stays fixed across lookups — the request
// DER and its CertID, the HTTP request that carries it, the decimal serial
// — is computed once into a probe: per campaign run for every target, per
// call for Scan. Each lookup sends a shallow copy of the probe's request
// with its own context and, for POST, its own body. The probe also
// keeps the last 200 body its target returned, with that body's parse and
// signature verdict, and a lookup reuses them only when the new body is
// byte-identical. The client itself holds no cache, so a campaign keeps
// one body per target while it runs and none after. See DESIGN.md §8,
// §18 and §23.
package scanner

import (
	"bytes"
	"context"
	"crypto"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// FailureClass classifies one OCSP lookup outcome.
type FailureClass int

const (
	// ClassOK is a successful request with a usable, validly signed
	// response covering the requested serial.
	ClassOK FailureClass = iota
	// ClassDNS is a name resolution failure (NXDOMAIN and friends).
	ClassDNS
	// ClassTCP is a connection failure.
	ClassTCP
	// ClassTLS is an HTTPS responder URL served with an invalid
	// certificate.
	ClassTLS
	// ClassHTTPStatus is an HTTP response with status other than 200.
	ClassHTTPStatus
	// ClassASN1 is a 200 response whose body does not parse as an OCSP
	// response (malformed structure — the dominant error in Figure 5).
	ClassASN1
	// ClassOCSPError is a parseable response with a non-successful
	// OCSP status (tryLater, unauthorized, ...).
	ClassOCSPError
	// ClassSerialUnmatch is a successful response that does not cover
	// the requested serial number.
	ClassSerialUnmatch
	// ClassSignature is a response whose signature fails validation.
	ClassSignature
	// ClassCanceled is a lookup abandoned because its context was
	// canceled or its deadline expired. Canceled lookups never reach
	// aggregators: the engine drops them and surfaces the context error.
	ClassCanceled
)

var classNames = map[FailureClass]string{
	ClassOK:            "ok",
	ClassDNS:           "dns-failure",
	ClassTCP:           "tcp-failure",
	ClassTLS:           "tls-failure",
	ClassHTTPStatus:    "http-status",
	ClassASN1:          "asn1-unparseable",
	ClassOCSPError:     "ocsp-error",
	ClassSerialUnmatch: "serial-unmatch",
	ClassSignature:     "signature-invalid",
	ClassCanceled:      "canceled",
}

func (c FailureClass) String() string {
	if s, ok := classNames[c]; ok {
		return s
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// HTTPSuccessful reports whether the exchange counts as a "successful
// request" in the paper's availability analysis (§5.2): the server
// responded with HTTP 200. Deeper validity problems (ASN.1, signature,
// serial mismatch) are still HTTP-successful.
func (c FailureClass) HTTPSuccessful() bool {
	switch c {
	case ClassDNS, ClassTCP, ClassTLS, ClassHTTPStatus, ClassCanceled:
		return false
	}
	return true
}

// Usable reports whether the response was actually usable for a revocation
// decision (the §5.3 validity analysis).
func (c FailureClass) Usable() bool { return c == ClassOK }

// Target is one (responder, certificate) pair the scanner probes.
type Target struct {
	// ResponderURL is the OCSP URL from the certificate's AIA.
	ResponderURL string
	// Responder is the responder's host (derived from the URL by the
	// world builder; kept explicit so aggregation never re-parses).
	Responder string
	// Issuer is the issuing CA certificate (for CertID hashing and
	// signature verification).
	Issuer *x509.Certificate
	// Serial is the probed certificate's serial number.
	Serial *big.Int
	// Domain is the Alexa domain served with this certificate, if any
	// (drives the Figure 4 impact analysis). DomainWeight is how many
	// real Alexa domains this target represents; 0 means 1 — scaled
	// worlds probe one target per responder weighted by the number of
	// domains whose certificates use it.
	Domain       string
	DomainWeight int
	// Expiry is the certificate's notAfter; the campaign stops probing
	// expired certificates, as the paper did (§5.1 footnote 9).
	Expiry time.Time
}

// Observation is the classified outcome of one lookup.
type Observation struct {
	Vantage      string
	Responder    string
	Domain       string
	DomainWeight int
	Serial       string
	At           time.Time
	Latency      time.Duration
	Class        FailureClass
	// HTTPStatus is set for every exchange that got an HTTP response.
	HTTPStatus int
	// OCSPStatus is the OCSPResponseStatus of a parseable response
	// (meaningful for ClassOCSPError: tryLater, unauthorized, ...).
	OCSPStatus ocsp.ResponseStatus

	// Retry accounting. Class and every response field above always
	// describe the FIRST attempt, so the paper's availability and
	// validity aggregates (§5.2, §5.3) are computed from single-attempt
	// outcomes exactly as the original methodology did. Retries only
	// show up in these fields and in the retry-salvage report.
	//
	// Attempts is the number of attempts performed (1 = no retry).
	Attempts int
	// FinalClass is the outcome of the last attempt; equal to Class when
	// no retry happened.
	FinalClass FailureClass
	// Salvaged is true when the first attempt failed with a transient
	// class but some retry succeeded (ClassOK).
	Salvaged bool

	// The fields below are populated when the response parsed
	// (ClassOK, ClassSerialUnmatch, ClassSignature).
	CertStatus    ocsp.CertStatus
	ProducedAt    time.Time
	ThisUpdate    time.Time
	NextUpdate    time.Time
	HasNextUpdate bool
	NumCerts      int
	NumSerials    int
	RevokedAt     time.Time
	Reason        pkixutil.ReasonCode

	// CacheMaxAge is the RFC 5019 Cache-Control max-age the responder
	// advertised over HTTP (-1 when absent). Only GET responses from
	// well-behaved responders carry it.
	CacheMaxAge int
}

// Transport abstracts how the scanner reaches responders: the simulated
// network (vantage- and time-aware) or the real Internet.
//
// Every lookup of one target sends a shallow copy of the same request, so
// the copies share req.URL and req.Header: a transport treats them as
// read-only. Each copy has its own context and, for POST, its own body.
type Transport interface {
	Do(vantage netsim.Vantage, at time.Time, req *http.Request) (*netsim.Result, error)
}

// RealTransport sends requests over a real *http.Client, for live scans.
// The vantage and virtual time are recorded but do not affect routing.
type RealTransport struct {
	Client *http.Client
	// Clock times each exchange for Result.Latency; nil means the wall
	// clock (clock.Real), which is what a live scan wants.
	Clock clock.Clock
}

// Do implements Transport.
func (t *RealTransport) Do(_ netsim.Vantage, _ time.Time, req *http.Request) (*netsim.Result, error) {
	client := t.Client
	if client == nil {
		client = http.DefaultClient
	}
	clk := t.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	if client.Jar != nil {
		// The client adds the jar's cookies to req.Header, which a
		// target's lookups share: this exchange gets its own copy.
		req = req.WithContext(req.Context())
		req.Header = req.Header.Clone()
	}
	start := clk.Now()
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A body cut off mid-transfer is a transport failure, not a short
	// body: the read error is returned and classifies as ClassTCP. A body
	// over the cap is truncated just past it and left to the parser.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	return &netsim.Result{Status: resp.StatusCode, Body: body, Headers: resp.Header, Latency: clk.Now().Sub(start)}, nil
}

// maxBodyBytes caps how much of a live response body RealTransport reads.
const maxBodyBytes = 1 << 20

// Client is the measurement client.
type Client struct {
	// Transport routes requests; required.
	Transport Transport
	// Method is http.MethodPost (default, as in the paper) or GET.
	Method string
	// Hash selects the CertID hash; default SHA-1.
	Hash crypto.Hash
	// Retry is the default retry policy applied by Scan. The zero value
	// performs a single attempt, matching the paper's methodology.
	Retry RetryPolicy
	// Metrics, when non-nil, receives per-scan instrumentation (scans
	// issued, retries, salvages, per-class counts, and the parses and
	// signature checks the probes' last-body slots did not save).
	Metrics *metrics.Registry
}

// probe holds what a lookup of one target needs that does not change
// between lookups. A campaign run builds one per target before its first
// round; Scan and ScanWithPolicy build one per call.
type probe struct {
	tgt Target
	// certID is the OCSP request's only CertID; err records a target
	// whose request cannot be built (every lookup of it classifies as
	// ClassASN1).
	certID ocsp.CertID
	err    error
	// req carries the encoded OCSP request to the target's responder.
	// Lookups send shallow copies of it and never modify it. It is nil
	// when the responder URL does not parse (or the client's Method is
	// neither POST nor GET), and every lookup of the target then
	// classifies as ClassDNS.
	req *http.Request
	// serial is tgt.Serial in decimal, for Observation.Serial.
	serial string
	// last is the most recent 200 body the target returned. A responder
	// answers every vantage of a round with the same body, and one that
	// pre-generates keeps it for a whole update window, so most lookups
	// find it here. Two workers scanning
	// the target from different vantages may both miss and both store;
	// the later store wins, and since a body's outcome depends on its
	// bytes alone, either entry gives the same observations.
	last atomic.Pointer[seenBody]
}

// seenBody is one response body with its parse and, once checked, its
// signature verdict. An entry lives in one probe, so its verdict is only
// ever read for that probe's issuer.
type seenBody struct {
	// body is the client's own copy of the bytes; resp.Raw aliases it.
	body    []byte
	resp    *ocsp.Response
	err     error
	verdict atomic.Int32
}

// seenBody.verdict values.
const (
	verdictUnchecked int32 = iota
	verdictValid
	verdictInvalid
)

// newProbe builds the probe for tgt with the client's CertID hash.
func (c *Client) newProbe(tgt Target) *probe {
	p := &probe{tgt: tgt}
	if tgt.Serial != nil {
		p.serial = tgt.Serial.String()
	}
	req, err := ocsp.NewRequestForSerial(tgt.Serial, tgt.Issuer, c.hash())
	var der []byte
	if err == nil {
		der, err = req.Marshal()
	}
	if err != nil {
		p.err = err
		return p
	}
	p.certID = req.CertIDs[0]
	// Each lookup sets its own context on a copy of the request.
	if httpReq, err := ocsp.NewHTTPRequest(context.Background(), c.method(), tgt.ResponderURL, der); err == nil {
		p.req = httpReq
	}
	return p
}

// seen returns body's entry in the probe's slot, parsing a copy of body
// when it differs from the last one by even a byte. Callers must treat the
// shared *ocsp.Response as read-only.
func (c *Client) seen(p *probe, body []byte) *seenBody {
	if s := p.last.Load(); s != nil && bytes.Equal(s.body, body) {
		return s
	}
	// A transport may reuse its buffer, so the entry owns a copy.
	s := &seenBody{body: bytes.Clone(body)}
	s.resp, s.err = ocsp.ParseResponse(s.body)
	c.count("scanner_parses_total")
	p.last.Store(s)
	return s
}

// signatureValid reports whether s is validly signed for the probe's
// issuer, verifying once per entry.
func (c *Client) signatureValid(p *probe, s *seenBody) bool {
	if v := s.verdict.Load(); v != verdictUnchecked {
		return v == verdictValid
	}
	v := verdictInvalid
	if s.resp.CheckSignatureFrom(p.tgt.Issuer) == nil {
		v = verdictValid
	}
	c.count("scanner_signature_checks_total")
	s.verdict.Store(v)
	return v == verdictValid
}

// count increments the named counter when the client has a registry.
func (c *Client) count(name string) {
	if c.Metrics != nil {
		c.Metrics.Counter(name).Inc()
	}
}

func (c *Client) method() string {
	if c.Method == "" {
		return http.MethodPost
	}
	return c.Method
}

func (c *Client) hash() crypto.Hash {
	if c.Hash == 0 {
		return crypto.SHA1
	}
	return c.Hash
}

// Scan performs one classified OCSP lookup, honoring ctx for cancellation
// and deadlines and applying the client's retry policy. The returned
// observation's Class and response fields always describe the first
// attempt (the paper's single-attempt methodology); Attempts, FinalClass,
// and Salvaged carry the retry outcome.
func (c *Client) Scan(ctx context.Context, vantage netsim.Vantage, at time.Time, tgt Target) Observation {
	return c.ScanWithPolicy(ctx, c.Retry, vantage, at, tgt)
}

// scanOnce performs a single classified attempt.
func (c *Client) scanOnce(ctx context.Context, vantage netsim.Vantage, at time.Time, p *probe) Observation {
	obs := Observation{
		Vantage:      vantage.Name,
		Responder:    p.tgt.Responder,
		Domain:       p.tgt.Domain,
		DomainWeight: max(p.tgt.DomainWeight, 1),
		Serial:       p.serial,
		At:           at,
		Reason:       pkixutil.ReasonAbsent,
		CacheMaxAge:  -1,
	}
	if ctx.Err() != nil {
		obs.Class = ClassCanceled
		return obs
	}

	if p.err != nil {
		obs.Class = ClassASN1
		return obs
	}
	if p.req == nil {
		obs.Class = ClassDNS
		return obs
	}
	httpReq := p.req.WithContext(ctx)
	if p.req.GetBody != nil {
		// A POST body is a reader, consumed by the exchange: every
		// attempt gets a fresh one over the same DER.
		body, err := p.req.GetBody()
		if err != nil {
			obs.Class = classifyTransportError(err)
			return obs
		}
		httpReq.Body = body
	}

	res, err := c.Transport.Do(vantage, at, httpReq)
	if err != nil {
		obs.Class = classifyTransportError(err)
		return obs
	}
	obs.HTTPStatus = res.Status
	obs.Latency = res.Latency
	obs.CacheMaxAge = parseMaxAge(res.Headers)
	if res.Status != http.StatusOK {
		obs.Class = ClassHTTPStatus
		return obs
	}

	entry := c.seen(p, res.Body)
	if entry.err != nil {
		obs.Class = ClassASN1
		return obs
	}
	resp := entry.resp
	obs.OCSPStatus = resp.Status
	if resp.Status != ocsp.StatusSuccessful {
		obs.Class = ClassOCSPError
		return obs
	}

	obs.ProducedAt = resp.ProducedAt
	obs.NumCerts = len(resp.Certificates)
	obs.NumSerials = len(resp.Responses)

	single := resp.Find(p.certID)
	if single == nil {
		obs.Class = ClassSerialUnmatch
		return obs
	}
	obs.CertStatus = single.Status
	obs.ThisUpdate = single.ThisUpdate
	obs.NextUpdate = single.NextUpdate
	obs.HasNextUpdate = single.HasNextUpdate()
	obs.RevokedAt = single.RevokedAt
	obs.Reason = single.Reason

	if !c.signatureValid(p, entry) {
		obs.Class = ClassSignature
		return obs
	}
	obs.Class = ClassOK
	return obs
}

// parseMaxAge extracts max-age from a Cache-Control header, -1 if absent.
// Directive names compare case-insensitively and the argument may be
// quoted (RFC 9111 §5.2); the first occurrence whose argument is
// delta-seconds counts.
func parseMaxAge(h http.Header) int {
	for rest := h.Get("Cache-Control"); rest != ""; {
		var part string
		part, rest, _ = strings.Cut(rest, ",")
		name, arg, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || !strings.EqualFold(name, "max-age") {
			continue
		}
		if len(arg) >= 2 && arg[0] == '"' && arg[len(arg)-1] == '"' {
			arg = arg[1 : len(arg)-1]
		}
		if n, ok := deltaSeconds(arg); ok {
			return n
		}
	}
	return -1
}

// maxDeltaSeconds is where delta-seconds saturate: 2^31, or the largest
// int where int has 32 bits (RFC 9111 §1.2.2).
const maxDeltaSeconds = min(1<<31, math.MaxInt)

// deltaSeconds parses 1*DIGIT, saturating at maxDeltaSeconds.
func deltaSeconds(s string) (int, bool) {
	if s == "" {
		return 0, false
	}
	var n int64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = min(n*10+int64(d), maxDeltaSeconds)
	}
	return int(n), true
}

func classifyTransportError(err error) FailureClass {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	var ne *netsim.Error
	if errors.As(err, &ne) {
		switch ne.Kind {
		case netsim.FailDNS:
			return ClassDNS
		case netsim.FailTLS:
			return ClassTLS
		default:
			return ClassTCP
		}
	}
	var dnsErr *net.DNSError
	if errors.As(err, &dnsErr) {
		return ClassDNS
	}
	var certErr x509.UnknownAuthorityError
	var hostErr x509.HostnameError
	if errors.As(err, &certErr) || errors.As(err, &hostErr) {
		return ClassTLS
	}
	return ClassTCP
}
