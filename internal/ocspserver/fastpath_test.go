package ocspserver

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/responder"
)

// getRecorder drives one GET through the handler in-process (no socket),
// returning the recorder — header-map identity checks need the raw
// header state, not a transport's re-serialization.
func getRecorder(t *testing.T, h http.Handler, reqDER []byte) *httptest.ResponseRecorder {
	t.Helper()
	u, err := url.Parse("http://ocsp.tier.test/" + ocsp.EncodeGETPath(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, &http.Request{Method: http.MethodGet, URL: u})
	return rec
}

var cachedProfile = responder.Profile{CacheResponses: true, Validity: 24 * time.Hour, UpdateInterval: 12 * time.Hour}

// alignToWindow advances the simulated clock to one second past r's next
// update-window boundary, so a test's subsequent small advances stay
// inside one window (the responder's per-host phase offset would
// otherwise land boundaries at arbitrary instants).
func alignToWindow(f *fixture, r *responder.Responder, interval time.Duration) {
	now := f.clk.Now()
	ws, _ := r.ServingEpoch(now)
	next := time.Unix(0, ws).Add(interval)
	f.clk.Advance(next.Sub(now) + time.Second)
}

// TestFastPathHitIdenticalToSlowPath pins the tentpole invariant: a
// memo hit must be byte-identical — body and every header — to what the
// slow path would have produced at the same instant.
func TestFastPathHitIdenticalToSlowPath(t *testing.T) {
	f := newFixture(t)
	r := f.responder(cachedProfile)
	alignToWindow(f, r, cachedProfile.UpdateInterval)
	warm := NewHandler(r)
	reqDER, _ := f.request(t)

	getRecorder(t, warm, reqDER) // fill
	f.clk.Advance(5 * time.Second)
	fast := getRecorder(t, warm, reqDER)

	if hits, misses, _ := warm.FastPathStats(); hits != 1 || misses != 1 {
		t.Fatalf("FastPathStats = %d hits, %d misses; want 1, 1", hits, misses)
	}

	// A fresh handler over the same responder core takes the slow path
	// at the same simulated instant.
	cold := NewHandler(r)
	slow := getRecorder(t, cold, reqDER)
	if hits, _, _ := cold.FastPathStats(); hits != 0 {
		t.Fatalf("cold handler served from memo (%d hits)", hits)
	}

	if fast.Code != http.StatusOK || slow.Code != http.StatusOK {
		t.Fatalf("status fast=%d slow=%d", fast.Code, slow.Code)
	}
	if !reflect.DeepEqual(fast.Header(), slow.Header()) {
		t.Errorf("header mismatch:\nfast: %v\nslow: %v", fast.Header(), slow.Header())
	}
	if fast.Body.String() != slow.Body.String() {
		t.Error("fast-path body differs from slow-path body")
	}
	if src := fast.Header().Get(responder.SourceHeader); src != "cache" {
		t.Errorf("fast hit source = %q, want cache", src)
	}
}

// TestFastPathMaxAgeCountsDown verifies the only per-request-varying
// header: max-age must track the virtual clock on hits, second by
// second, while Expires stays pinned to NextUpdate.
func TestFastPathMaxAgeCountsDown(t *testing.T) {
	f := newFixture(t)
	r := f.responder(cachedProfile)
	alignToWindow(f, r, cachedProfile.UpdateInterval)
	h := NewHandler(r)
	reqDER, _ := f.request(t)

	first := getRecorder(t, h, reqDER)
	expires := first.Header().Get("Expires")
	var age0 int
	if _, err := fmt.Sscanf(first.Header().Get("Cache-Control"), "max-age=%d,", &age0); err != nil {
		t.Fatalf("parsing Cache-Control %q: %v", first.Header().Get("Cache-Control"), err)
	}
	for i, adv := range []time.Duration{time.Second, 7 * time.Second} {
		f.clk.Advance(adv)
		rec := getRecorder(t, h, reqDER)
		var age int
		if _, err := fmt.Sscanf(rec.Header().Get("Cache-Control"), "max-age=%d,", &age); err != nil {
			t.Fatalf("parsing Cache-Control %q: %v", rec.Header().Get("Cache-Control"), err)
		}
		want := age0 - 1
		if i == 1 {
			want = age0 - 8
		}
		if age != want {
			t.Errorf("after %v total: max-age = %d, want %d", adv, age, want)
		}
		if got := rec.Header().Get("Expires"); got != expires {
			t.Errorf("Expires drifted: %q -> %q", expires, got)
		}
	}
	if hits, _, _ := h.FastPathStats(); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

// TestFastPathEpochRollInvalidates: the memo must stop matching the
// instant the responder's update window rolls — no stale-past-window byte.
func TestFastPathEpochRollInvalidates(t *testing.T) {
	f := newFixture(t)
	p := responder.Profile{CacheResponses: true, Validity: 2 * time.Hour, UpdateInterval: time.Hour}
	r := f.responder(p)
	alignToWindow(f, r, p.UpdateInterval)
	h := NewHandler(r)
	reqDER, _ := f.request(t)

	first := getRecorder(t, h, reqDER)
	etag := first.Header().Get("ETag")

	f.clk.Advance(30 * time.Minute)
	mid := getRecorder(t, h, reqDER)
	if got := mid.Header().Get("ETag"); got != etag {
		t.Errorf("ETag changed within window: %q -> %q", etag, got)
	}
	if hits, _, _ := h.FastPathStats(); hits != 1 {
		t.Fatalf("hits = %d, want 1 mid-window", hits)
	}

	f.clk.Advance(31 * time.Minute) // crosses the 1h window boundary
	rolled := getRecorder(t, h, reqDER)
	if got := rolled.Header().Get("ETag"); got == etag {
		t.Error("ETag unchanged across window roll: memo served a stale epoch")
	}
	resp := mustParse(t, rolled.Body.Bytes())
	if len(resp.Responses) == 0 || !resp.Responses[0].NextUpdate.After(f.clk.Now()) {
		t.Error("post-roll response is stale past NextUpdate")
	}
	if hits, _, _ := h.FastPathStats(); hits != 1 {
		t.Fatalf("hits = %d after roll, want 1 (roll must miss)", hits)
	}
}

// TestFastPathRevocationInvalidates: a DB generation bump kills the memo
// entry (conservative), while the refilled response stays byte-identical
// within the window — §2.2's stale-until-rollover semantics are the
// responder core's to decide, not the transport memo's.
func TestFastPathRevocationInvalidates(t *testing.T) {
	f := newFixture(t)
	r := f.responder(cachedProfile)
	alignToWindow(f, r, cachedProfile.UpdateInterval)
	h := NewHandler(r)
	reqDER, _ := f.request(t)

	first := getRecorder(t, h, reqDER)
	f.clk.Advance(time.Minute)
	f.db.Revoke(f.leaf.Certificate.SerialNumber, f.clk.Now(), 1)
	f.clk.Advance(time.Minute)

	after := getRecorder(t, h, reqDER)
	if hits, _, _ := h.FastPathStats(); hits != 0 {
		t.Fatalf("hits = %d, want 0 (generation bump must invalidate)", hits)
	}
	if first.Body.String() != after.Body.String() {
		t.Error("window-cached body changed mid-window after revocation")
	}

	// The refilled entry serves again under the new generation.
	f.clk.Advance(time.Second)
	getRecorder(t, h, reqDER)
	if hits, _, _ := h.FastPathStats(); hits != 1 {
		t.Fatalf("hits = %d after refill, want 1", hits)
	}
}

// TestFastPathIneligibleProfiles: profiles whose responses cannot be
// pinned to an update-window epoch must never be memoized.
func TestFastPathIneligibleProfiles(t *testing.T) {
	cases := []struct {
		name string
		p    responder.Profile
	}{
		{"on-demand", responder.Profile{}},
		{"multi-instance", responder.Profile{CacheResponses: true, Instances: 3}},
		{"malformed", responder.Profile{CacheResponses: true, Malformed: responder.MalformedZero}},
		{"error-status", responder.Profile{CacheResponses: true, ErrorStatus: ocsp.StatusTryLater}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			h := NewHandler(f.responder(tc.p))
			reqDER, _ := f.request(t)
			getRecorder(t, h, reqDER)
			getRecorder(t, h, reqDER)
			if hits, _, _ := h.FastPathStats(); hits != 0 {
				t.Errorf("%s: %d fast-path hits, want 0", tc.name, hits)
			}
		})
	}
}

// TestFastCacheByteConfirmation: serveFast serves an entry only for the
// path stored in it. An entry stored under the path's hash with a
// different path, as a hash collision would leave it, is a miss.
func TestFastCacheByteConfirmation(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(cachedProfile))
	reqDER, _ := f.request(t)
	u, err := url.Parse("http://ocsp.tier.test/" + ocsp.EncodeGETPath(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	raw := u.RawPath
	if raw == "" {
		raw = u.Path
	}
	getRecorder(t, h, reqDER) // the slow path fills the memo
	if !h.serveFast(httptest.NewRecorder(), raw) {
		t.Fatal("exact-path lookup missed")
	}
	hash := hashx.Sum64(raw)
	h.fast.Put(hash, hash, &fastEntry{path: "impostor-path"}, fastShardBudget)
	rec := httptest.NewRecorder()
	if h.serveFast(rec, raw) || rec.Body.Len() != 0 {
		t.Fatal("entry stored for a different path was served on a hash match")
	}
	if hits, misses, _ := h.FastPathStats(); hits != 1 || misses != 2 {
		t.Fatalf("hits, misses = %d, %d; want 1, 2", hits, misses)
	}
}

// TestFastCacheEviction (white-box): a shard of the handler's fast-path
// memo half-evicts at fastShardBudget and reports the eviction count.
func TestFastCacheEviction(t *testing.T) {
	var h Handler
	var evicted int
	// Hashes i<<6 all land in shard 0 (low six bits zero, high word zero).
	for i := 0; i < fastShardBudget+1; i++ {
		hash := uint64(i) << 6
		evicted += h.fast.Put(hash, hash, &fastEntry{path: fmt.Sprintf("p%d", i)}, fastShardBudget)
	}
	if evicted != fastShardBudget/2 {
		t.Fatalf("evicted = %d, want %d", evicted, fastShardBudget/2)
	}
	if n := h.fast.Len(); n > fastShardBudget {
		t.Fatalf("shard grew past budget: %d", n)
	}
	last := uint64(fastShardBudget) << 6
	if e, ok := h.fast.Get(last, last); !ok || e.path != fmt.Sprintf("p%d", fastShardBudget) {
		t.Fatal("entry inserted at the budget was evicted")
	}
}

// TestFastPathCountersInRegistry: the satellite contract — hit/miss/
// evict counters surface through metrics.Registry (and so /debug/vars).
func TestFastPathCountersInRegistry(t *testing.T) {
	f := newFixture(t)
	reg := metrics.NewRegistry()
	h := NewHandler(f.responder(cachedProfile), WithMetrics(reg))
	reqDER, _ := f.request(t)
	getRecorder(t, h, reqDER)
	getRecorder(t, h, reqDER)

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"ocspserver.fastpath.hit":   1,
		"ocspserver.fastpath.miss":  1,
		"ocspserver.fastpath.evict": 0,
		"ocspserver.requests":       2,
		"ocspserver.get":            2,
		"ocspserver.source.cache":   1,
	} {
		if got, ok := snap.Counters[name]; !ok || got != want {
			t.Errorf("counter %s = %d (present=%v), want %d", name, got, ok, want)
		}
	}
}

// discardWriter is a ResponseWriter that keeps one header map and drops
// the body, so an allocation count sees the handler alone.
type discardWriter struct{ hdr http.Header }

func (w *discardWriter) Header() http.Header         { return w.hdr }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestServeGETHotAllocFree pins the fast path's contract at runtime: a
// warmed GET served from the memo through ServeHTTP allocates nothing.
// AllocsPerRun averages over 1,000 requests, so one stray background
// allocation cannot fail it.
func TestServeGETHotAllocFree(t *testing.T) {
	f := newFixture(t)
	h := NewHandler(f.responder(cachedProfile))
	reqDER, _ := f.request(t)
	u, err := url.Parse("http://ocsp.tier.test/" + ocsp.EncodeGETPath(reqDER))
	if err != nil {
		t.Fatal(err)
	}
	req := &http.Request{Method: http.MethodGet, URL: u}
	w := &discardWriter{hdr: make(http.Header, 8)}
	h.ServeHTTP(w, req) // fill
	h.ServeHTTP(w, req) // first hit formats the Cache-Control value
	if hits, misses, _ := h.FastPathStats(); hits != 1 || misses != 1 {
		t.Fatalf("warm-up: %d hits, %d misses; want 1, 1", hits, misses)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); n != 0 {
		t.Fatalf("fast-path GET allocates %v times per request, want 0", n)
	}
	if hits, misses, _ := h.FastPathStats(); hits != 1002 || misses != 1 {
		t.Fatalf("fast path left the memo: %d hits, %d misses; want 1002, 1", hits, misses)
	}
}
