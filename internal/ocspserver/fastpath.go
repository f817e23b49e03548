package ocspserver

import "sync/atomic"

// The GET fast path memoizes complete framed responses keyed on the raw
// escaped request path, so the dominant serving-tier traffic shape —
// byte-identical RFC 5019 GETs hammering a window-cached responder —
// skips base64 decoding, OCSP request parsing, and header formatting
// entirely. It is the transport-level analogue of the responder's
// signed-response cache, one layer further out:
//
//   - Keying: FNV-1a over the raw escaped path (http.Request.URL
//     .EscapedPath) is both the memo.Table hash and its key, confirmed by
//     comparing the stored path string, so a hash collision costs a
//     refill, never a wrong response.
//   - Epoch awareness: each entry records the responder's serving epoch
//     (update-window start + DB generation, responder.ServingEpoch) at
//     fill time and its response's NextUpdate instant. A hit requires
//     the epoch to still match and now to precede NextUpdate; the moment
//     a window rolls every entry stops matching, so no stale-past-
//     NextUpdate byte can ever be replayed.
//   - Fill safety: the handler captures the epoch before calling
//     Respond and only stores the entry if the epoch is unchanged
//     afterwards — a response generated while the window rolled is
//     served once but never memoized under the wrong epoch.
//
// Only a responder.FastServeEligible responder is memoized (window-cached,
// single-instance, well-formed profiles); any other takes the slow path
// on every request.

// fastShardBudget bounds each of the memo's 64 shards, 8,192 entries in
// all.
const fastShardBudget = 128

// ccVal is a formatted Cache-Control value pinned to one whole-second
// max-age. The header is the only per-epoch header that changes between
// requests (max-age counts down), so it is re-formatted at most once per
// second per entry and republished through an atomic pointer.
type ccVal struct {
	secs int64
	vals []string
}

// fastEntry is one memoized GET response. Every field except cc is
// immutable after publication; der aliases the responder cache's stored
// bytes (immutable by contract), and the header value slices are
// assigned directly into response header maps, so they must never be
// mutated.
type fastEntry struct {
	path        string
	epochWindow int64
	epochGen    uint64
	nextUpdate  int64 // Meta.NextUpdate in UnixNano; hits require now < nextUpdate
	der         []byte
	expires     []string
	lastMod     []string
	etag        []string
	cc          atomic.Pointer[ccVal]
}
