// Package webserver decides what a stapling server holds and what it
// staples, for every server model the reproduction measures: Apache
// 2.4.18 and Nginx 1.13.12 as §7.2 (Table 3) found them, the "correct"
// policy §8 recommends (prefetch on startup, refresh hourly, respect
// nextUpdate, retain the last valid response across upstream errors), a
// cacheless server, the §5.2 CDN's OCSP cache, and a serve-stale CDN
// tier.
//
// Each model is a Policy row, and one pure transition serves them all:
// Due says whether a handshake fetches, Apply folds a fetch into the Held
// state, and Staple says whether the handshake staples. Engine runs the
// transition behind real TLS: its *tls.Config staples the held response
// into the handshake via GetCertificate, so the browser models in
// internal/browser and the Table 3 experiments observe exactly what a real
// client would. The §8 hard-fail replay (internal/impact) and the CDN
// model (internal/census) drive the same transition from scan
// observations.
package webserver

import (
	"crypto/tls"
	"errors"
	"math"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// Policy captures a server implementation's stapling behavior.
type Policy struct {
	// Name identifies the modelled software.
	Name string

	// Prefetch fetches the OCSP response at startup, before any client
	// connects. Neither Apache nor Nginx does this (Table 3 row 1).
	Prefetch bool

	// PauseFirstConnection blocks the TLS handshake of the first client
	// while fetching (Apache). When false and no response is cached,
	// the first client simply gets no staple and a background fetch is
	// triggered (Nginx).
	PauseFirstConnection bool

	// RespectNextUpdate discards cached responses at their nextUpdate
	// (Nginx). When false the server keeps serving expired responses
	// from its cache (Apache — the bug the authors reported as
	// Apache Bugzilla #62400).
	RespectNextUpdate bool

	// RetainOnError keeps the previous (still valid) response when a
	// refresh attempt fails (Nginx). When false the cache is dropped:
	// the server then staples nothing (upstream unreachable) or staples
	// the error response itself (upstream returned an OCSP error) —
	// both Apache behaviors. A retaining server also never replaces a
	// response its clients accept with a fresh one they would reject
	// now or that expires sooner.
	RetainOnError bool

	// CacheLifetime is how long a fetched response is served before a
	// refresh is attempted, independent of nextUpdate (Apache's
	// response-age cache, default 1 hour).
	CacheLifetime time.Duration

	// RefreshAtHalfLife refreshes once half the validity the response
	// had left when fetched has passed, or hourly for a blank nextUpdate
	// (the §5.2 CDN).
	RefreshAtHalfLife bool

	// MinRefreshInterval rate-limits refreshes (Nginx refreshes at most
	// once every 5 minutes, so short-validity responses can be served
	// expired — §7.2 footnote 28).
	MinRefreshInterval time.Duration
}

// NoCachePolicy is a server without a stapling cache: it staples only
// what a fetch at the handshake's own instant returned, the worst case of
// §8. Handshakes at one instant share that fetch; every handshake at a
// later instant fetches.
func NoCachePolicy() Policy {
	return Policy{
		Name:                 "no-cache",
		PauseFirstConnection: true,
		CacheLifetime:        time.Nanosecond,
	}
}

// ApachePolicy models Apache 2.4.18 mod_ssl.
func ApachePolicy() Policy {
	return Policy{
		Name:                 "apache-2.4.18",
		Prefetch:             false,
		PauseFirstConnection: true,
		RespectNextUpdate:    false,
		RetainOnError:        false,
		CacheLifetime:        time.Hour,
	}
}

// NginxPolicy models Nginx 1.13.12.
func NginxPolicy() Policy {
	return Policy{
		Name:                 "nginx-1.13.12",
		Prefetch:             false,
		PauseFirstConnection: false,
		RespectNextUpdate:    true,
		RetainOnError:        true,
		MinRefreshInterval:   5 * time.Minute,
	}
}

// CorrectPolicy is the §8 recommendation: prefetch, refresh hourly,
// respect expiry, retain the last good response while retrying errors.
func CorrectPolicy() Policy {
	return Policy{
		Name:                 "correct",
		Prefetch:             true,
		PauseFirstConnection: true, // never triggers: prefetch fills the cache
		RespectNextUpdate:    true,
		RetainOnError:        true,
		CacheLifetime:        time.Hour,
	}
}

// StaleServingCDNPolicy models a serve-stale-while-revalidating CDN
// stapling tier: refresh on a fixed cadence like Apache, but keep serving
// the last response — even past its nextUpdate — while the upstream
// responder is failing. During a long responder outage this is the
// configuration that staples expired responses indefinitely (the
// responder-outage staleness class of the Expect-Staple telemetry
// pipeline), where Apache staples nothing and Nginx withholds the expired
// staple.
func StaleServingCDNPolicy() Policy {
	return Policy{
		Name:                 "cdn-serve-stale",
		Prefetch:             true,
		PauseFirstConnection: true,
		RespectNextUpdate:    false,
		RetainOnError:        true,
		CacheLifetime:        time.Hour,
	}
}

// CDNPolicy models the §5.2 CDN's OCSP cache: fetch on a cold cache,
// refresh at half-life so that a valid copy is always held while a flaky
// upstream is retried, and retain the response until its nextUpdate.
func CDNPolicy() Policy {
	return Policy{
		Name:                 "cdn-half-life",
		PauseFirstConnection: true,
		RespectNextUpdate:    true,
		RetainOnError:        true,
		RefreshAtHalfLife:    true,
	}
}

// Held is what a server holds for one certificate. The zero Held is a
// cold cache. Instants are Unix nanoseconds, 0 for the zero time.Time (a
// blank nextUpdate, or no attempt yet), which keeps the §8 replay's four
// states per (responder, vantage) pair at 40 bytes each.
type Held struct {
	thisUpdate, nextUpdate int64 // the held response's validity window
	fetchedAt              int64 // when the held state was last refreshed
	lastAttempt            int64 // the most recent fetch, for MinRefreshInterval
	has                    bool  // a response is held
	isError                bool  // the held response is an OCSP error response
	failing                bool  // the most recent fetch failed
}

// Fetched is what one upstream fetch yields.
type Fetched struct {
	// Failed means no OCSP bytes at all: the responder was unreachable
	// or answered with an HTTP error.
	Failed bool
	// Usable means a successful OCSP response carrying a single
	// response, whose window ThisUpdate and NextUpdate give (NextUpdate
	// zero if blank).
	Usable                 bool
	ThisUpdate, NextUpdate time.Time
}

// Observed is the fetch a scan observation stands for: the §8 replay and
// the §5.2 CDN fetch through the scanner rather than through a Fetcher.
func Observed(o scanner.Observation) Fetched {
	f := Fetched{Failed: !o.Class.HTTPSuccessful(), Usable: o.Class.Usable(), ThisUpdate: o.ThisUpdate}
	if o.HasNextUpdate {
		f.NextUpdate = o.NextUpdate
	}
	return f
}

var minInstant, maxInstant = time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)

// unixNano is t in Unix nanoseconds, 0 for the zero Time; instants outside
// int64's range (before 1678 or after 2262) saturate.
func unixNano(t time.Time) int64 {
	switch {
	case t.IsZero():
		return 0
	case t.Before(minInstant):
		return math.MinInt64
	case t.After(maxInstant):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// Accepted reports whether a hard-failing client accepts the held
// response at now: a successful response inside its validity window.
func (h Held) Accepted(now time.Time) bool { return h.acceptedAt(unixNano(now)) }

func (h Held) acceptedAt(t int64) bool {
	return h.has && !h.isError && t >= h.thisUpdate && !h.expiredAt(t)
}

func (h Held) expiredAt(t int64) bool { return h.nextUpdate != 0 && t > h.nextUpdate }

// expiresBefore reports whether h expires strictly before o; a blank
// nextUpdate never expires.
func (h Held) expiresBefore(o Held) bool {
	return h.nextUpdate != 0 && (o.nextUpdate == 0 || h.nextUpdate < o.nextUpdate)
}

// halfLife is how long after fetchedAt a RefreshAtHalfLife server
// refreshes. Halving each term first cannot overflow.
func (h Held) halfLife() int64 {
	if h.nextUpdate == 0 {
		return int64(time.Hour)
	}
	return h.nextUpdate/2 - h.fetchedAt/2
}

// Due reports whether a handshake at now fetches before it staples.
func (p Policy) Due(h Held, now time.Time) bool {
	t := unixNano(now)
	switch {
	case p.MinRefreshInterval > 0 && h.lastAttempt != 0 && t-h.lastAttempt < int64(p.MinRefreshInterval):
		return false
	case !h.has || h.isError:
		return true
	case p.RespectNextUpdate && h.expiredAt(t):
		return true
	case p.RefreshAtHalfLife && t-h.fetchedAt >= h.halfLife():
		return true
	}
	return p.CacheLifetime > 0 && t-h.fetchedAt >= int64(p.CacheLifetime)
}

// Apply folds a fetch made at now into h. kept reports whether the
// fetched response replaced the held one, so that a caller holding the
// response bytes swaps them.
func (p Policy) Apply(h Held, f Fetched, now time.Time) (next Held, kept bool) {
	t := unixNano(now)
	switch {
	case f.Usable:
		fresh := Held{thisUpdate: unixNano(f.ThisUpdate), nextUpdate: unixNano(f.NextUpdate), fetchedAt: t, lastAttempt: t, has: true}
		if p.RetainOnError && h.acceptedAt(t) && (!fresh.acceptedAt(t) || fresh.expiresBefore(h)) {
			// Keep the staple clients accept; the refresh itself
			// succeeded.
			h.fetchedAt, h.lastAttempt, h.failing = t, t, false
			return h, false
		}
		return fresh, true
	case p.RetainOnError:
		h.lastAttempt, h.failing = t, true
		return h, false
	case f.Failed:
		// Apache: drop the old response entirely.
		return Held{lastAttempt: t, failing: true}, false
	}
	// Apache: cache and staple the error response itself.
	return Held{fetchedAt: t, lastAttempt: t, has: true, isError: true}, true
}

// Staple reports whether a handshake at now staples the response held
// after it. h is the state the handshake found; f is what its own fetch
// yielded, nil when Due said no.
func (p Policy) Staple(h Held, now time.Time, f *Fetched) bool {
	switch {
	case f == nil:
		// Served from the cache. A server that respects nextUpdate
		// gets here with an expired response only while its refresh
		// is rate-limited.
		return h.has
	case !h.has && !p.PauseFirstConnection:
		// Nginx: the fetch completes after this handshake.
		return false
	case f.Usable:
		return true
	case !p.RetainOnError:
		// Apache staples an error response, and nothing when the
		// responder is unreachable.
		return !f.Failed
	}
	return h.has && !(p.RespectNextUpdate && h.expiredAt(unixNano(now)))
}

// Fetcher obtains a fresh OCSP response DER for the server's certificate.
// NewFetcher builds the one that reaches the CA's responder; a wrapper
// around it may inject failures where no netsim rule can.
type Fetcher func() ([]byte, error)

// Engine is a stapling web server instance.
type Engine struct {
	Leaf   *pki.Leaf
	Policy Policy
	Fetch  Fetcher
	Clock  clock.Clock

	// ExpectStaple, when non-nil, is the site's Expect-Staple policy: the
	// engine advertises it on every response (see ExpectStapleHeaderValue)
	// so user agents note the host and report staple violations to its
	// report-uri.
	ExpectStaple *ExpectStaple

	mu         sync.Mutex
	held       Held
	der        []byte // the held response's bytes
	fetchCount int
	asyncWG    sync.WaitGroup
}

// NewEngine builds an engine; Start must be called before serving.
func NewEngine(leaf *pki.Leaf, policy Policy, fetch Fetcher, clk clock.Clock) *Engine {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Engine{Leaf: leaf, Policy: policy, Fetch: fetch, Clock: clk}
}

// Start performs startup work: prefetching when the policy calls for it.
func (e *Engine) Start() error {
	if !e.Policy.Prefetch {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	f, err := e.refreshLocked(e.Clock.Now())
	if err == nil && !f.Usable {
		err = errors.New("webserver: upstream returned unusable response")
	}
	return err
}

// FetchCount reports how many upstream fetches the engine has made — the
// observable the Table 3 experiments assert on.
func (e *Engine) FetchCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fetchCount
}

// WaitIdle blocks until background fetches complete (test determinism).
func (e *Engine) WaitIdle() { e.asyncWG.Wait() }

// refreshLocked fetches once, parses what came back and applies the
// policy to it. Callers hold e.mu.
func (e *Engine) refreshLocked(now time.Time) (Fetched, error) {
	e.fetchCount++
	der, err := e.Fetch()
	f := Fetched{Failed: err != nil}
	if err == nil {
		if resp, perr := ocsp.ParseResponse(der); perr == nil && resp.Status == ocsp.StatusSuccessful && len(resp.Responses) > 0 {
			f.Usable, f.ThisUpdate, f.NextUpdate = true, resp.Responses[0].ThisUpdate, resp.Responses[0].NextUpdate
		}
	}
	var kept bool
	if e.held, kept = e.Policy.Apply(e.held, f, now); kept {
		e.der = der
	}
	return f, err
}

// RefreshFailing reports whether the engine's most recent upstream fetch
// failed — the server-side signal that a stale staple is being served
// because the responder is unreachable, not because the server never
// refreshes. Violation classification uses it to tell responder-outage
// staleness from a plain expired window.
func (e *Engine) RefreshFailing() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.held.failing
}

// StapleForHandshake returns the bytes to staple into a TLS handshake
// starting now, as the policy's transition decides. A nil return staples
// nothing.
func (e *Engine) StapleForHandshake() []byte {
	now := e.Clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()

	h := e.held
	var fetched *Fetched
	switch {
	case !e.Policy.Due(h, now):
	case !h.has && !e.Policy.PauseFirstConnection:
		// Nginx: no staple for this client; fetch in the background
		// for the next one. The launch counts as the attempt, so the
		// rate limit holds while the fetch runs.
		e.held.lastAttempt = unixNano(now)
		e.asyncWG.Add(1)
		go func() {
			defer e.asyncWG.Done()
			e.mu.Lock()
			defer e.mu.Unlock()
			e.refreshLocked(e.Clock.Now())
		}()
		return nil
	default:
		f, _ := e.refreshLocked(now) // f and the held state carry a failure
		fetched = &f
	}
	if !e.Policy.Staple(h, now, fetched) {
		return nil
	}
	return e.der
}

// TLSConfig returns a server TLS configuration that staples according to
// the policy on every handshake.
func (e *Engine) TLSConfig() (*tls.Config, error) {
	if e.Leaf == nil || e.Leaf.Issuer == nil {
		return nil, errors.New("webserver: engine needs a leaf with its issuer")
	}
	baseCert := tls.Certificate{
		Certificate: [][]byte{e.Leaf.Certificate.Raw, e.Leaf.Issuer.Certificate.Raw},
		PrivateKey:  e.Leaf.Key,
		Leaf:        e.Leaf.Certificate,
	}
	return &tls.Config{
		GetCertificate: func(chi *tls.ClientHelloInfo) (*tls.Certificate, error) {
			cert := baseCert
			cert.OCSPStaple = e.StapleForHandshake()
			return &cert, nil
		},
	}, nil
}
