// Package ocspserver is the production OCSP serving tier: it fronts one
// responder.Responder (the signing core) with a transport layer built
// for real sockets and real clients. The handler speaks RFC 6960 POST
// and the RFC 5019 lightweight GET profile — base64 (std or url-safe,
// padded or not, percent-escaped or not) request DER in the URL path —
// derives the RFC 5019 §6 HTTP cache headers from each response's
// validity window so CDNs and intermediate caches can front the
// responder, and hardens the parsing edge: request size caps, method and
// media-type policing, and malformed DER answered with a proper OCSP
// malformedRequest response instead of a 500 (a hostile or broken
// client must not look like a responder outage).
//
// The same handler serves both deployment modes the paper's taxonomy
// distinguishes (§2.2): pre-generating responders (the signed-response
// cache serves one response per update window, and the cache headers let
// HTTP caches absorb the fan-out) and on-demand signers. Epoch rollover
// is graceful by construction — window-keyed cache entries stop matching
// the instant the window rolls, so requests straddling the boundary
// regenerate without a stall or a stale byte.
package ocspserver

import (
	"crypto/sha1"
	"encoding/hex"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/memo"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

const (
	// DefaultMaxRequestBytes caps the request DER a client may submit
	// (POST body or decoded GET path). Real OCSP requests are well under
	// 200 bytes even with a nonce; 64 KiB tolerates pathological-but-
	// legitimate multi-serial requests while bounding hostile input.
	DefaultMaxRequestBytes = 64 << 10

	// maxGETPathBytes bounds the raw GET path before any decoding: 4/3
	// base64 expansion plus worst-case percent-escaping of the max DER.
	maxGETPathBytes = 4 * DefaultMaxRequestBytes
)

// Handler is the transport-facing OCSP handler: it owns HTTP framing
// (method and media-type policing, size caps, GET-path decoding, cache
// headers) and delegates response production to one responder core.
type Handler struct {
	r *responder.Responder
	// clock dates cache headers and fast-path epochs: the responder's
	// clock, or the wall clock when it has none.
	clock clock.Clock
	fast  memo.Table[uint64, *fastEntry]

	reg *metrics.Registry

	// Hot-path counters, resolved once at construction: the per-request
	// path must not pay a registry map lookup, and the serve-source
	// counter name must not be concatenated per request. When no metrics
	// registry is configured these are standalone counters (still
	// readable through FastPathStats), so the hot path never branches on
	// instrumentation.
	cRequests, cGET, cPost *metrics.Counter
	cSource                [numSources]*metrics.Counter
	cFastHit, cFastMiss    *metrics.Counter
	cFastEvict             *metrics.Counter
}

// initCounters resolves the hot-path counters, after options have run.
func (h *Handler) initCounters() {
	counter := func(name string) *metrics.Counter {
		if h.reg != nil {
			return h.reg.Counter(name)
		}
		return &metrics.Counter{}
	}
	h.cRequests = counter("ocspserver.requests")
	h.cGET = counter("ocspserver.get")
	h.cPost = counter("ocspserver.post")
	for src := range h.cSource {
		h.cSource[src] = counter("ocspserver.source." + responder.ServeSource(src).String())
	}
	h.cFastHit = counter("ocspserver.fastpath.hit")
	h.cFastMiss = counter("ocspserver.fastpath.miss")
	h.cFastEvict = counter("ocspserver.fastpath.evict")
}

// FastPathStats returns the GET fast-path memo's lifetime hit, miss, and
// eviction counts. With WithMetrics these also appear in the registry
// (and therefore /debug/vars) as ocspserver.fastpath.{hit,miss,evict}.
func (h *Handler) FastPathStats() (hits, misses, evictions uint64) {
	return uint64(h.cFastHit.Value()), uint64(h.cFastMiss.Value()), uint64(h.cFastEvict.Value())
}

// HandlerOption configures a Handler at construction.
type HandlerOption func(*Handler)

// WithMetrics instruments the handler: request, rejection, and
// serve-source counters land in reg (see DebugVars for the scrape side).
func WithMetrics(reg *metrics.Registry) HandlerOption {
	return func(h *Handler) { h.reg = reg }
}

// NewHandler fronts the responder core r.
func NewHandler(r *responder.Responder, opts ...HandlerOption) *Handler {
	h := &Handler{r: r, clock: r.Clock}
	if h.clock == nil {
		h.clock = clock.Real{}
	}
	for _, o := range opts {
		o(h)
	}
	h.initCounters()
	return h
}

func (h *Handler) count(name string) {
	if h.reg != nil {
		h.reg.Counter(name).Inc()
	}
}

// ServeHTTP implements OCSP over HTTP for the serving tier.
func (h *Handler) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h.cRequests.Inc()
	switch req.Method {
	case http.MethodPost:
		h.cPost.Inc()
		h.servePOST(w, req)
	case http.MethodGet:
		h.cGET.Inc()
		h.serveGET(w, req)
	default:
		h.count("ocspserver.rejected.method")
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (h *Handler) servePOST(w http.ResponseWriter, req *http.Request) {
	if !mediaTypeOK(req.Header.Get("Content-Type")) {
		h.count("ocspserver.rejected.mediatype")
		http.Error(w, "Content-Type must be "+ocsp.ContentTypeRequest, http.StatusUnsupportedMediaType)
		return
	}
	// The request bytes do not outlive this call (the responder's
	// response cache stores its own copy), so the read buffer is pooled —
	// campaigns POST millions of scans through here.
	buf := pkixutil.GetBuffer()
	defer pkixutil.PutBuffer(buf)
	if _, err := buf.ReadFrom(io.LimitReader(req.Body, DefaultMaxRequestBytes+1)); err != nil {
		http.Error(w, "read error", http.StatusBadRequest)
		return
	}
	if buf.Len() > DefaultMaxRequestBytes {
		h.count("ocspserver.rejected.oversize")
		http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
		return
	}
	h.respond(w, req, buf.Bytes(), "")
}

// Precomputed header values: direct map assignment with already-canonical
// keys skips http.Header.Set's per-call slice allocation and key
// canonicalization. Every response shares these slices, so they must
// never be mutated. "Etag" is ETag's canonical MIME form (what
// Set("ETag", ...) stores), so both paths share one map key.
var (
	contentTypeResponseVal = []string{ocsp.ContentTypeResponse}
	sourceVals             = [numSources][]string{
		responder.SourceStatic: {responder.SourceStatic.String()},
		responder.SourceCache:  {responder.SourceCache.String()},
		responder.SourceSigned: {responder.SourceSigned.String()},
	}
)

// numSources is the number of responder.ServeSource values.
const numSources = int(responder.SourceSigned) + 1

// setResponseHeaders assigns the two headers every OCSP response carries.
//
//lint:allocfree
func setResponseHeaders(hdr http.Header, src responder.ServeSource) {
	hdr["Content-Type"] = contentTypeResponseVal
	hdr[responder.SourceHeader] = sourceVals[src]
}

func (h *Handler) serveGET(w http.ResponseWriter, req *http.Request) {
	// The escaped path keeps percent-escapes intact, so an escaped '/'
	// inside the base64 is not mistaken for a path separator. This is
	// EscapedPath's semantics, read from the URL's fields directly:
	// RawPath is set exactly when the request line's escaped form
	// differs from the decoded path, and EscapedPath's revalidation of
	// that invariant (already enforced by the server's URL parse)
	// re-unescapes the path, allocating on every escaped request.
	raw := req.URL.RawPath
	if raw == "" {
		raw = req.URL.Path
	}
	if len(raw) > maxGETPathBytes {
		h.count("ocspserver.rejected.oversize")
		http.Error(w, "request URI too long", http.StatusRequestURITooLong)
		return
	}
	if h.serveFast(w, raw) {
		return
	}
	// Miss: decode into a pooled buffer. The decoded DER does not
	// outlive respond (the responder's cache copies what it keeps), so
	// the serving tier's steady-state miss path allocates no decode
	// garbage either.
	scratch := pkixutil.GetBytes()
	defer pkixutil.PutBytes(scratch)
	reqDER, err := ocsp.AppendDecodeGETPath((*scratch)[:0], raw)
	if err == nil && cap(reqDER) > cap(*scratch) {
		*scratch = reqDER[:0] // keep the grown backing array pooled
	}
	if err != nil || len(reqDER) == 0 {
		// Undecodable paths get a well-formed OCSP malformedRequest
		// answer with 200, not an HTTP error: OCSP clients understand
		// the former, and the hostile-input fuzz of real responders
		// must not dress up as a serving-tier outage.
		h.count("ocspserver.malformed")
		h.writeStatic(w, ocsp.ErrorResponse(ocsp.StatusMalformedRequest))
		return
	}
	if len(reqDER) > DefaultMaxRequestBytes {
		h.count("ocspserver.rejected.oversize")
		http.Error(w, "request too large", http.StatusRequestEntityTooLarge)
		return
	}
	h.respond(w, req, reqDER, raw)
}

// serveFast serves a GET from the fast-path memo. A hit writes the
// memoized body and headers without decoding, parsing, or formatting
// anything — zero allocations (BenchmarkServeGETHot enforces this at
// runtime; the //lint:allocfree contract enforces it at lint time). Returns false (a recorded miss) when no current entry matches;
// the caller then takes the slow path, which refills the memo.
//
//lint:allocfree
func (h *Handler) serveFast(w http.ResponseWriter, raw string) bool {
	hash := hashx.Sum64(raw)
	e, _ := h.fast.Get(hash, hash)
	if e == nil || e.path != raw {
		h.cFastMiss.Inc()
		return false
	}
	now := h.clock.Now()
	nowNano := now.UnixNano()
	win, gen := h.r.ServingEpoch(now)
	if win != e.epochWindow || gen != e.epochGen || nowNano >= e.nextUpdate {
		// The window rolled, a revocation landed, or the response
		// expired: the entry is dead. The slow path overwrites it.
		h.cFastMiss.Inc()
		return false
	}
	h.cFastHit.Inc()
	h.cSource[responder.SourceCache].Inc()
	hdr := w.Header()
	setResponseHeaders(hdr, responder.SourceCache)
	secs := (e.nextUpdate - nowNano) / int64(time.Second)
	cc := e.cc.Load()
	if cc == nil || cc.secs != secs {
		cc = &ccVal{secs: secs, vals: []string{cacheControlValue(secs)}} //lint:allow allocfree re-formatted at most once per second per entry; amortized to zero across that second's hits
		e.cc.Store(cc)
	}
	hdr["Cache-Control"] = cc.vals
	hdr["Expires"] = e.expires
	hdr["Last-Modified"] = e.lastMod
	hdr["Etag"] = e.etag
	w.Write(e.der)
	return true
}

func cacheControlValue(secs int64) string {
	return "max-age=" + strconv.FormatInt(secs, 10) + ", public, no-transform, must-revalidate"
}

// respond hands the raw request DER to the responder and frames the
// result. rawPath is the escaped GET path for memoizable requests, ""
// for POSTs (whose responses RFC 5019 §6 forbids caching anyway).
func (h *Handler) respond(w http.ResponseWriter, req *http.Request, reqDER []byte, rawPath string) {
	r := h.r
	// Capture the responder's serving epoch before generating: if the
	// update window rolls (or a revocation lands) while Respond runs,
	// the result is served but not memoized — an entry must never be
	// published under an epoch it was not generated in.
	memo := rawPath != "" && r.FastServeEligible()
	var (
		memoWin int64
		memoGen uint64
	)
	if memo {
		memoWin, memoGen = r.ServingEpoch(h.clock.Now())
	}
	res, err := r.Respond(req.Context(), reqDER)
	if err != nil {
		// The client canceled or timed out mid-request; nothing useful
		// can be written back.
		h.count("ocspserver.canceled")
		return
	}
	h.cSource[res.Source].Inc()
	hdr := w.Header()
	setResponseHeaders(hdr, res.Source)
	// RFC 5019 §6: GET responses from well-behaved responders carry
	// standard HTTP caching headers derived from the validity window, so
	// intermediate caches (and CDNs fronting responders, §5.2) can serve
	// them. POST responses and blank-nextUpdate responses are not
	// cacheable.
	if req.Method == http.MethodGet && res.HasMeta && !res.Meta.NextUpdate.IsZero() {
		now := h.clock.Now()
		if maxAge := res.Meta.NextUpdate.Sub(now); maxAge > 0 {
			secs := int64(maxAge / time.Second)
			ccStr := cacheControlValue(secs)
			expires := res.Meta.NextUpdate.UTC().Format(http.TimeFormat)
			lastMod := res.Meta.ThisUpdate.UTC().Format(http.TimeFormat)
			sum := sha1.Sum(res.DER)
			etag := `"` + hex.EncodeToString(sum[:]) + `"`
			hdr.Set("Cache-Control", ccStr)
			hdr.Set("Expires", expires)
			hdr.Set("Last-Modified", lastMod)
			hdr.Set("ETag", etag)
			if memo && !res.Malformed && res.Source != responder.SourceStatic {
				if w2, g2 := r.ServingEpoch(now); w2 == memoWin && g2 == memoGen {
					e := &fastEntry{
						path:        rawPath,
						epochWindow: memoWin,
						epochGen:    memoGen,
						nextUpdate:  res.Meta.NextUpdate.UnixNano(),
						der:         res.DER,
						expires:     []string{expires},
						lastMod:     []string{lastMod},
						etag:        []string{etag},
					}
					e.cc.Store(&ccVal{secs: secs, vals: []string{ccStr}})
					hash := hashx.Sum64(rawPath)
					h.cFastEvict.Add(int64(h.fast.Put(hash, hash, e, fastShardBudget)))
				}
			}
		}
	}
	w.Write(res.DER)
}

// writeStatic frames an unsigned static OCSP body (error responses).
func (h *Handler) writeStatic(w http.ResponseWriter, der []byte) {
	h.cSource[responder.SourceStatic].Inc()
	setResponseHeaders(w.Header(), responder.SourceStatic)
	w.Write(der)
}

// mediaTypeOK polices the POST media type: RFC 6960 Appendix A requires
// application/ocsp-request. Parameters (charset noise from misconfigured
// clients) are tolerated; other types are not.
func mediaTypeOK(ct string) bool {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), ocsp.ContentTypeRequest)
}
