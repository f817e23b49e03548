// Package responder implements an RFC 6960 OCSP responder core on top of
// internal/ocsp. The transport-facing HTTP layer lives in
// internal/ocspserver, which frames Respond results over real sockets or
// the simulated network; this package owns response generation only.
// A per-responder Profile injects every response-quality defect the paper
// catalogues in §5.3–§5.4 — malformed bodies, serial mismatches, bad
// signatures, blank or enormous nextUpdate values, zero-margin and future
// thisUpdate values, cached (non-on-demand) generation with update
// intervals, multi-instance producedAt skew, superfluous certificates and
// unsolicited serials, and CRL/OCSP status, time, and reason-code
// discrepancies.
//
// The same package also publishes the CA's CRL, so the consistency study
// (§5.4) exercises both dissemination channels of one revocation database.
package responder

import (
	"bytes"
	"context"
	"crypto"
	"crypto/x509"
	"io"
	"math/big"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// CertRecord is the revocation database's view of one issued certificate.
type CertRecord struct {
	Serial    *big.Int
	Expiry    time.Time
	Revoked   bool
	RevokedAt time.Time
	Reason    pkixutil.ReasonCode
}

// DB is a CA's revocation database: the ground truth that both the OCSP
// responder and the CRL publisher disseminate.
type DB struct {
	mu     sync.RWMutex
	issued map[string]*CertRecord
	// gen counts status mutations. The responder's on-demand
	// memoization folds it into its cache key, so a Revoke between two
	// scans at the same virtual instant forces regeneration instead of
	// serving the pre-revocation answer. Window-cached responses
	// deliberately ignore it: a pre-generated response keeps serving
	// the stale status until its window rolls over (§2.2).
	gen atomic.Uint64
}

// NewDB returns an empty revocation database.
func NewDB() *DB {
	return &DB{issued: make(map[string]*CertRecord)}
}

// AddIssued records an issued certificate.
func (db *DB) AddIssued(serial *big.Int, expiry time.Time) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.issued[serial.String()] = &CertRecord{Serial: new(big.Int).Set(serial), Expiry: expiry, Reason: pkixutil.ReasonAbsent}
}

// Revoke marks a serial revoked at time at with the given reason
// (pkixutil.ReasonAbsent for none). Unknown serials are ignored.
func (db *DB) Revoke(serial *big.Int, at time.Time, reason pkixutil.ReasonCode) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if rec, ok := db.issued[serial.String()]; ok {
		rec.Revoked = true
		rec.RevokedAt = at
		rec.Reason = reason
		db.gen.Add(1)
	}
}

// Generation returns the status-mutation counter. It changes exactly when
// a Revoke lands, so equal generations imply equal lookup results for
// never-revoked-then-unrevoked databases.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// Lookup returns the record for serial and whether the serial was issued by
// this CA at all.
func (db *DB) Lookup(serial *big.Int) (CertRecord, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	rec, ok := db.issued[serial.String()]
	if !ok {
		return CertRecord{}, false
	}
	return *rec, true
}

// RevokedEntries returns all revoked records, sorted by serial — the input
// to CRL generation.
func (db *DB) RevokedEntries() []CertRecord {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []CertRecord
	for _, rec := range db.issued {
		if rec.Revoked {
			out = append(out, *rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Serial.Cmp(out[j].Serial) < 0 })
	return out
}

// Serials returns every issued serial, sorted.
func (db *DB) Serials() []*big.Int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []*big.Int
	for _, rec := range db.issued {
		out = append(out, new(big.Int).Set(rec.Serial))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Cmp(out[j]) < 0 })
	return out
}

// MalformedKind enumerates the broken response bodies observed in the wild
// (§5.3: empty responses, the value "0", and even JavaScript pages).
type MalformedKind int

const (
	MalformedNone MalformedKind = iota
	MalformedEmpty
	MalformedZero
	MalformedJavaScript
	MalformedTruncated
)

// Window mirrors netsim.Window without importing it (no dependency cycle):
// a virtual-time interval during which a profile defect is active.
type Window struct {
	From, To time.Time
}

func (w Window) contains(t time.Time) bool {
	if !w.From.IsZero() && t.Before(w.From) {
		return false
	}
	if !w.To.IsZero() && !t.Before(w.To) {
		return false
	}
	return true
}

func anyWindow(ws []Window, t time.Time) bool {
	for _, w := range ws {
		if w.contains(t) {
			return true
		}
	}
	return false
}

// Profile configures a responder's response-quality behavior. The zero
// value is a well-behaved responder: on-demand generation, 7-day validity,
// 1-hour thisUpdate margin, single certificate, single serial, consistent
// with the CRL.
type Profile struct {
	// Validity is nextUpdate − thisUpdate; 0 means the 7-day default.
	// The paper's Figure 8 shows the wild range: from seconds to 1,251
	// days.
	Validity time.Duration

	// BlankNextUpdate omits nextUpdate entirely ("newer revocation
	// information is always available") — 9.1% of responders.
	BlankNextUpdate bool

	// ThisUpdateOffset is subtracted from the generation time to form
	// thisUpdate. Positive values backdate (safe); zero gives the
	// no-margin behavior of 17.2% of responders (clients with slightly
	// slow clocks reject the response as not yet valid); negative
	// values produce future thisUpdate times (3% of responders).
	ThisUpdateOffset time.Duration

	// NoDefaultMargin distinguishes an intentional zero offset from an
	// unset field: when false and ThisUpdateOffset == 0 the responder
	// uses a 1-hour margin.
	NoDefaultMargin bool

	// CacheResponses pre-generates responses per update window instead
	// of signing on demand (51.7% of responders are not on-demand).
	// UpdateInterval is how often a fresh response is produced; 0 means
	// Validity/2. Setting UpdateInterval == Validity reproduces the
	// non-overlapping-validity hazard (hinet: 7200s/7200s).
	CacheResponses bool
	UpdateInterval time.Duration

	// Instances > 1 models load-balanced responder farms whose members
	// generate at skewed times, so consecutive fetches can observe
	// producedAt going backwards (§5.4 footnote 17). InstanceSkew is
	// the generation-time offset between adjacent instances.
	Instances    int
	InstanceSkew time.Duration

	// ExtraSerials adds that many unsolicited single responses
	// (Figure 7: 3.3% of responders always return 20 serials).
	ExtraSerials int

	// SuperfluousCerts are embedded beyond what signature validation
	// needs (Figure 6: 14.5% of responders; ocsp.cpc.gov.ae sends a
	// four-certificate chain including the root).
	SuperfluousCerts []*x509.Certificate

	// Malformed substitutes a broken body; when MalformedWindows is
	// non-empty the defect is transient (the sheca.com and postsignum
	// "0"-response episodes), otherwise persistent (1.6% of responders).
	Malformed        MalformedKind
	MalformedWindows []Window

	// SerialMismatch answers about a different serial than requested.
	SerialMismatch bool

	// BadSignature corrupts the signature after signing.
	BadSignature bool

	// ErrorStatus, when non-zero... responds with this OCSP error
	// status (tryLater etc.) instead of a successful response.
	ErrorStatus ocsp.ResponseStatus

	// StatusOverrides forces the returned status for specific serials
	// (decimal strings) regardless of the database — the CRL/OCSP
	// status discrepancies of Table 1.
	StatusOverrides map[string]ocsp.CertStatus

	// RevocationTimeSkew shifts revocation times in OCSP responses
	// relative to the CRL's ground truth (ocsp.msocsp.com lags its CRL
	// by 7 hours to 9 days; 14.7% of differing pairs are negative).
	RevocationTimeSkew time.Duration

	// DropReasonCodes omits revocation reasons that the CRL carries —
	// the source of 99.99% of reason-code discrepancies.
	DropReasonCodes bool
}

func (p *Profile) validity() time.Duration {
	if p.Validity != 0 {
		return p.Validity
	}
	return 7 * 24 * time.Hour
}

func (p *Profile) updateInterval() time.Duration {
	if p.UpdateInterval != 0 {
		return p.UpdateInterval
	}
	return p.validity() / 2
}

func (p *Profile) thisUpdateOffset() time.Duration {
	if p.ThisUpdateOffset == 0 && !p.NoDefaultMargin {
		return time.Hour
	}
	return p.ThisUpdateOffset
}

// ServeSource labels how a response body was produced, for the
// cached-vs-signed serve-time distinction netsim can model.
type ServeSource uint8

const (
	// SourceStatic is a profile-injected body that involves no signing
	// at all: malformed blobs and unsigned OCSP error responses.
	SourceStatic ServeSource = iota
	// SourceCache is a hit in the signed-response cache.
	SourceCache
	// SourceSigned is a freshly generated and signed response.
	SourceSigned
)

func (s ServeSource) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceSigned:
		return "sign"
	}
	return "static"
}

// SourceHeader is the response header naming the ServeSource ("cache",
// "sign" or "static"): an operator reads per response whether it came
// from memory or was signed on the request path.
const SourceHeader = "X-Responder-Source"

// Responder is one OCSP responder instance.
type Responder struct {
	// Host is the responder's DNS name (used by the world generator to
	// register it on the simulated network).
	Host string
	// CA is the issuing CA whose certificates this responder answers
	// for.
	CA *pki.CA
	// Clock supplies virtual or real time.
	Clock clock.Clock
	// DB is the revocation database.
	DB *DB
	// Profile is the behavior configuration.
	Profile Profile

	// Signer/SignerCert override the CA key with a delegated responder
	// certificate when set (OCSP signature authority delegation).
	Signer     crypto.Signer
	SignerCert *x509.Certificate
	// Rand is the signing randomness source; nil means crypto/rand.
	Rand io.Reader

	// issuer hashes for request validation, computed lazily.
	hashOnce                                 sync.Once
	sha1Name, sha1Key, sha256Name, sha256Key []byte

	// onDemandSign (WithOnDemandSigning) disables the signed-response
	// cache entirely: every request is parsed, generated, and signed.
	// It exists as the benchmark baseline and as the equivalence-test
	// counterpart proving the cache changes no observable bytes.
	onDemandSign bool

	cache responseCache

	// phase is the responder's update-window phase offset, derived once
	// from the host name (see windowStart).
	phaseOnce sync.Once
	phase     time.Duration

	// tmpl memoizes the signing template (and through it the marshalled
	// byKey ResponderID) across generate calls. Guarded by tmplMu; only
	// touched on the miss path, so contention is irrelevant.
	tmplMu     sync.Mutex
	tmpl       *ocsp.ResponderTemplate
	tmplSigner crypto.Signer
	tmplCert   *x509.Certificate
	tmplRand   io.Reader
}

// Meta carries the validity window of a generated response, so the HTTP
// layer can derive the RFC 5019 §6 caching headers without re-parsing its
// own DER.
type Meta struct {
	ThisUpdate time.Time
	NextUpdate time.Time // zero when blank
	ProducedAt time.Time
}

// Option configures a Responder at construction.
type Option func(*Responder)

// WithOnDemandSigning disables the signed-response cache, restoring strict
// per-request parse+sign behavior. Campaigns run with and without it must
// produce byte-identical observations (the cache only re-serves bytes that
// regeneration would reproduce); benchmarks use it as the baseline.
func WithOnDemandSigning() Option {
	return func(r *Responder) { r.onDemandSign = true }
}

// New creates a responder for ca with the given behavior profile.
func New(host string, ca *pki.CA, db *DB, clk clock.Clock, profile Profile, opts ...Option) *Responder {
	if clk == nil {
		clk = clock.Real{}
	}
	r := &Responder{
		Host:    host,
		CA:      ca,
		Clock:   clk,
		DB:      db,
		Profile: profile,
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// CacheStats returns the signed-response cache hit and miss counts. A miss
// is any request that had to be parsed and signed; hits were served as
// stored bytes without touching the parser or the signer.
func (r *Responder) CacheStats() (hits, misses uint64) {
	return r.cache.hits.Load(), r.cache.misses.Load()
}

// ServingEpoch identifies the serving epoch at virtual time now for
// transport-level memoization: the start of the current update window
// (UnixNano) plus the revocation database's status generation. Two calls
// returning equal pairs are guaranteed to produce byte-identical
// responses for byte-identical requests on a FastServeEligible responder,
// so a transport may replay a stored (response, headers) pair verbatim
// while the epoch holds. The generation component is conservative: a
// mid-window Revoke does not change a window-cached response's bytes
// (§2.2 — stale status serves until rollover), but bumping the epoch on
// it merely forces a refill that reproduces the same bytes.
func (r *Responder) ServingEpoch(now time.Time) (window int64, gen uint64) {
	if r.Profile.CacheResponses {
		window = r.windowStart(now).UnixNano()
	} else {
		window = now.UnixNano()
	}
	if r.DB != nil {
		gen = r.DB.Generation()
	}
	return window, gen
}

// FastServeEligible reports whether this responder's configuration admits
// transport-level response memoization keyed on (request bytes, serving
// epoch). Only window-cached, single-instance, well-formed-body profiles
// qualify: on-demand signers key on the exact instant (nothing to replay
// across requests), multi-instance farms are incoherent by design, and
// malformed/error profiles may be time-windowed so their bodies cannot be
// pinned to an update-window epoch.
func (r *Responder) FastServeEligible() bool {
	return !r.onDemandSign &&
		r.Profile.CacheResponses &&
		r.Profile.Instances <= 1 &&
		r.Profile.Malformed == MalformedNone &&
		r.Profile.ErrorStatus == ocsp.StatusSuccessful
}

func (r *Responder) signerAndCert() (crypto.Signer, *x509.Certificate) {
	if r.Signer != nil && r.SignerCert != nil {
		return r.Signer, r.SignerCert
	}
	return r.CA.Key, r.CA.Certificate
}

// template returns the memoized signing template, rebuilding it if the
// signer configuration changed since the last generate.
func (r *Responder) template() *ocsp.ResponderTemplate {
	signer, cert := r.signerAndCert()
	r.tmplMu.Lock()
	defer r.tmplMu.Unlock()
	if r.tmpl == nil || r.tmplSigner != signer || r.tmplCert != cert || r.tmplRand != r.Rand {
		tmpl := &ocsp.ResponderTemplate{Signer: signer, Certificate: cert, Rand: r.Rand}
		if r.Signer != nil && r.SignerCert != nil {
			// Delegated responders must embed their certificate.
			tmpl.IncludeCertificates = append(tmpl.IncludeCertificates, r.SignerCert)
		}
		tmpl.IncludeCertificates = append(tmpl.IncludeCertificates, r.Profile.SuperfluousCerts...)
		r.tmpl, r.tmplSigner, r.tmplCert, r.tmplRand = tmpl, signer, cert, r.Rand
	}
	return r.tmpl
}

func (r *Responder) initHashes() {
	// Hashing a parsed certificate's raw subject/SPKI with SHA-1/SHA-256
	// cannot fail: both algorithms are linked in and the DER was already
	// validated by x509 parsing. A zero hash would merely make this
	// responder match no CertID, i.e. respond unauthorized.
	r.hashOnce.Do(func() {
		r.sha1Name, _ = pkixutil.IssuerNameHash(r.CA.Certificate, crypto.SHA1)     //lint:allow errcheck-hot infallible for parsed certs, see above
		r.sha1Key, _ = pkixutil.IssuerKeyHash(r.CA.Certificate, crypto.SHA1)       //lint:allow errcheck-hot infallible for parsed certs, see above
		r.sha256Name, _ = pkixutil.IssuerNameHash(r.CA.Certificate, crypto.SHA256) //lint:allow errcheck-hot infallible for parsed certs, see above
		r.sha256Key, _ = pkixutil.IssuerKeyHash(r.CA.Certificate, crypto.SHA256)   //lint:allow errcheck-hot infallible for parsed certs, see above
	})
}

// servesIssuer reports whether the CertID's issuer hashes match this
// responder's CA.
func (r *Responder) servesIssuer(id ocsp.CertID) bool {
	r.initHashes()
	switch id.HashAlgorithm {
	case crypto.SHA1:
		return bytes.Equal(id.IssuerNameHash, r.sha1Name) && bytes.Equal(id.IssuerKeyHash, r.sha1Key)
	case crypto.SHA256:
		return bytes.Equal(id.IssuerNameHash, r.sha256Name) && bytes.Equal(id.IssuerKeyHash, r.sha256Key)
	default:
		return false
	}
}

// Result is the outcome of one OCSP exchange at the responder core: the
// response body plus everything a transport layer needs to frame it —
// the validity window (from which internal/ocspserver derives the
// RFC 5019 §6 cache headers) and how the body was produced (for the
// cached-vs-signed serve-cost accounting).
type Result struct {
	// DER is the response body. For Malformed results it is a
	// profile-injected blob that is not DER at all; transports serve it
	// with 200 and the OCSP content type exactly like a real response,
	// because that is what the misbehaving responders in the wild did.
	DER []byte
	// Meta is the response's validity window, meaningful only when
	// HasMeta is true (successful signed or cached responses; OCSP error
	// responses and malformed bodies carry none).
	Meta    Meta
	HasMeta bool
	// Source labels how the body was produced.
	Source ServeSource
	// Malformed marks profile-injected non-DER bodies (§5.3).
	Malformed bool
}

// Respond processes a raw DER OCSP request and returns the response. It
// is the responder's single entry point: request-parse failures and
// signing errors surface as OCSP error responses (malformedRequest,
// internalError) inside the Result, never as Go errors — the only error
// ever returned is the context's, checked before any work happens, so a
// canceled request does not consume a parse or a signature.
func (r *Responder) Respond(ctx context.Context, reqDER []byte) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	der, meta, hasMeta, ok, src := r.respond(reqDER)
	return Result{DER: der, Meta: meta, HasMeta: hasMeta, Source: src, Malformed: !ok}, nil
}

// respond is the responder hot path. Within one update window an unchanged
// status yields a byte-identical signed response, so the fast path hashes
// the raw request bytes, keys them with the current epoch, and serves the
// stored response without parsing or signing anything. Requests are parsed
// only on a cache miss.
func (r *Responder) respond(reqDER []byte) (der []byte, meta Meta, hasMeta, ok bool, src ServeSource) {
	now := r.Clock.Now()

	if r.Profile.Malformed != MalformedNone &&
		(len(r.Profile.MalformedWindows) == 0 || anyWindow(r.Profile.MalformedWindows, now)) {
		return malformedBody(r.Profile.Malformed), Meta{}, false, false, SourceStatic
	}

	if r.Profile.ErrorStatus != ocsp.StatusSuccessful {
		return ocsp.ErrorResponse(r.Profile.ErrorStatus), Meta{}, false, true, SourceStatic
	}

	key, cacheable := r.cacheKeyFor(reqDER, now)
	if cacheable {
		if der, meta, hit := r.cache.get(key, reqDER); hit {
			return der, meta, true, true, SourceCache
		}
	}

	req, err := ocsp.ParseRequest(reqDER)
	if err != nil {
		return ocsp.ErrorResponse(ocsp.StatusMalformedRequest), Meta{}, false, true, SourceStatic
	}

	der, meta, err = r.generateFor(req, now)
	if err != nil {
		return ocsp.ErrorResponse(ocsp.StatusInternalError), Meta{}, false, true, SourceStatic
	}
	if cacheable && r.shouldCache(req) {
		r.cache.put(key, reqDER, der, meta)
	}
	return der, meta, true, true, SourceSigned
}

// cacheKeyFor derives the epoch-scoped cache key for raw request bytes at
// virtual time now, without parsing them. Cached-mode responders key on
// their update window (a pre-generated response serves its whole window,
// revocations included — §2.2); on-demand responders key on the exact
// instant plus the database's status generation, memoizing only the
// same-tick fan-out across vantage points. That fan-out exists only under
// a simulated clock: on the wall clock an instant never repeats, so an
// on-demand responder there stores nothing — every entry would be dead
// weight on the heap (DESIGN.md §17).
//
//lint:allocfree
func (r *Responder) cacheKeyFor(reqDER []byte, now time.Time) (respKey, bool) {
	if r.onDemandSign {
		return respKey{}, false
	}
	if r.Profile.CacheResponses {
		return respKey{hash: hashx.Sum64(reqDER), epoch: r.windowStart(now).UnixNano()}, true
	}
	if _, wall := r.Clock.(clock.Real); wall {
		return respKey{}, false
	}
	var gen uint64
	if r.DB != nil {
		gen = r.DB.Generation()
	}
	return respKey{hash: hashx.Sum64(reqDER), epoch: now.UnixNano(), gen: gen}, true
}

// shouldCache reports whether a freshly generated response may be stored.
// Multi-instance farms are incoherent by design (each fetch may hit a
// differently skewed instance), and on-demand responders must not replay
// nonce-echoing responses.
func (r *Responder) shouldCache(req *ocsp.Request) bool {
	if r.Profile.CacheResponses {
		return r.Profile.Instances <= 1
	}
	return len(req.Nonce) == 0
}

// windowStart returns the start of the update window containing now.
// Window boundaries carry a per-responder phase so that real fleets'
// unaligned regeneration schedules are modelled: without it, a campaign
// whose scan instants happen to be multiples of the update interval would
// always observe producedAt == receipt time and misclassify caching
// responders as on-demand.
func (r *Responder) windowStart(now time.Time) time.Time {
	interval := r.Profile.updateInterval()
	r.phaseOnce.Do(func() { r.phase = time.Duration(hashx.Sum32(r.Host)) % interval })
	ws := now.Add(-r.phase).Truncate(interval).Add(r.phase)
	if ws.After(now) {
		ws = ws.Add(-interval)
	}
	return ws
}

func malformedBody(k MalformedKind) []byte {
	switch k {
	case MalformedEmpty:
		return []byte{}
	case MalformedZero:
		return []byte("0")
	case MalformedJavaScript:
		return []byte("<html><script>window.location='/login';</script></html>")
	case MalformedTruncated:
		return []byte{0x30, 0x82, 0x01, 0xff, 0x0a, 0x01, 0x00, 0xa0}
	}
	return nil
}

// generateFor builds and signs the response for a parsed request at
// virtual time now, deriving the generation time from the profile. It is
// a pure function of (request, now, profile, DB state), which is what
// makes the cache transparent: replaying it for the same epoch reproduces
// the same bytes (signing is deterministic under pki.DeterministicSigner).
func (r *Responder) generateFor(req *ocsp.Request, now time.Time) ([]byte, Meta, error) {
	if !r.Profile.CacheResponses {
		// On-demand generation, echoing a nonce when present.
		return r.generate(req, now, now, req.Nonce)
	}

	// Cached mode: one pre-generated response per update window.
	// Nonces cannot be echoed from a cache; real pre-generating
	// responders ignore them too.
	windowStart := r.windowStart(now)
	genTime := windowStart
	if r.Profile.Instances > 1 {
		// Pick a pseudo-random farm instance; its generation time is
		// skewed back by its index, so producedAt can regress between
		// consecutive fetches.
		idx := int(hashx.Sum32(instanceKey(req)+now.Format(time.RFC3339)) % uint32(r.Profile.Instances))
		skew := r.Profile.InstanceSkew
		if skew == 0 {
			skew = time.Minute
		}
		genTime = windowStart.Add(-time.Duration(idx) * skew)
	}
	return r.generate(req, now, genTime, nil)
}

// instanceKey reproduces the pre-cache-redesign request key (the requested
// serials), which seeds the multi-instance pick; keeping it bit-identical
// keeps every seeded world's producedAt-regression stream unchanged.
func instanceKey(req *ocsp.Request) string {
	key := ""
	for _, id := range req.CertIDs {
		key += id.Serial.String() + "|"
	}
	return key
}

// generate builds and signs a fresh response. genTime is the nominal
// generation instant (== now for on-demand responders, the window start for
// caching ones); producedAt and thisUpdate derive from it.
func (r *Responder) generate(req *ocsp.Request, now, genTime time.Time, nonce []byte) ([]byte, Meta, error) {
	p := &r.Profile
	thisUpdate := genTime.Add(-p.thisUpdateOffset())
	var nextUpdate time.Time
	if !p.BlankNextUpdate {
		nextUpdate = thisUpdate.Add(p.validity())
	}

	singles := make([]ocsp.SingleResponse, 0, len(req.CertIDs)+p.ExtraSerials)
	for _, id := range req.CertIDs {
		respondID := id
		if p.SerialMismatch {
			respondID.Serial = new(big.Int).Add(id.Serial, big.NewInt(1))
		}
		single := ocsp.SingleResponse{
			CertID:     respondID,
			ThisUpdate: thisUpdate,
			NextUpdate: nextUpdate,
			Reason:     pkixutil.ReasonAbsent,
		}
		single.Status, single.RevokedAt, single.Reason = r.statusFor(id)
		singles = append(singles, single)
	}

	// Unsolicited extra serials (inflated responses, Figure 7).
	for i := 0; i < p.ExtraSerials; i++ {
		extraID := req.CertIDs[0]
		extraID.Serial = new(big.Int).Add(extraID.Serial, big.NewInt(int64(1000000+i)))
		singles = append(singles, ocsp.SingleResponse{
			CertID:     extraID,
			Status:     ocsp.Good,
			ThisUpdate: thisUpdate,
			NextUpdate: nextUpdate,
			Reason:     pkixutil.ReasonAbsent,
		})
	}

	der, err := ocsp.CreateResponse(r.template(), genTime, singles, nonce)
	if err != nil {
		return nil, Meta{}, err
	}
	if p.BadSignature {
		der = corruptSignature(der)
	}
	return der, Meta{ThisUpdate: thisUpdate, NextUpdate: nextUpdate, ProducedAt: genTime}, nil
}

// statusFor resolves the status the responder reports for a CertID,
// applying every configured discrepancy.
func (r *Responder) statusFor(id ocsp.CertID) (ocsp.CertStatus, time.Time, pkixutil.ReasonCode) {
	p := &r.Profile
	if p.StatusOverrides != nil {
		if st, ok := p.StatusOverrides[id.Serial.String()]; ok {
			return st, time.Time{}, pkixutil.ReasonAbsent
		}
	}
	if !r.servesIssuer(id) {
		return ocsp.Unknown, time.Time{}, pkixutil.ReasonAbsent
	}
	rec, issued := r.DB.Lookup(id.Serial)
	if !issued {
		return ocsp.Unknown, time.Time{}, pkixutil.ReasonAbsent
	}
	if !rec.Revoked {
		return ocsp.Good, time.Time{}, pkixutil.ReasonAbsent
	}
	revokedAt := rec.RevokedAt.Add(p.RevocationTimeSkew)
	reason := rec.Reason
	if p.DropReasonCodes {
		reason = pkixutil.ReasonAbsent
	}
	return ocsp.Revoked, revokedAt, reason
}

// corruptSignature flips a bit in the middle of the response's signature
// BIT STRING, located by parsing the response — the result still parses
// cleanly but fails signature validation, the exact failure class Figure 5
// separates from ASN.1 errors.
func corruptSignature(der []byte) []byte {
	resp, err := ocsp.ParseResponse(der)
	if err != nil || len(resp.Signature) == 0 {
		return der
	}
	idx := bytes.Index(der, resp.Signature)
	if idx < 0 {
		return der
	}
	out := make([]byte, len(der))
	copy(out, der)
	out[idx+len(resp.Signature)/2] ^= 0x04
	return out
}
