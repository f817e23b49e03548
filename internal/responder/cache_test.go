package responder

import (
	"bytes"
	"context"
	"crypto"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

func leafOpts(name string) pki.LeafOptions {
	return pki.LeafOptions{DNSNames: []string{name}, NotBefore: t0.AddDate(0, -1, 0)}
}

func requestFor(t testing.TB, f *fixture, leaf *pki.Leaf) []byte {
	t.Helper()
	req, err := ocsp.NewRequest(leaf.Certificate, f.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	der, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return der
}

// TestCachedStaleUntilNextUpdate pins the §2.2 update-window semantics the
// signed-response cache must preserve: a revocation landing mid-window does
// NOT surface until the responder's next update window, because the cached
// pre-generated response keeps serving its stale `good` status.
func TestCachedStaleUntilNextUpdate(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{CacheResponses: true, Validity: 4 * time.Hour, UpdateInterval: 2 * time.Hour})
	reqDER, id := f.request(t)

	f.clk.Set(t0.Add(10 * time.Minute))
	before := firstBody(respondDER(r, reqDER))
	if mustParse(t, before).Find(id).Status != ocsp.Good {
		t.Fatal("pre-revocation status should be good")
	}

	// Revoke mid-window: the pre-generated response must keep serving.
	f.db.Revoke(f.leaf.Certificate.SerialNumber, f.clk.Now(), pkixutil.ReasonKeyCompromise)
	f.clk.Advance(30 * time.Minute)
	stale := firstBody(respondDER(r, reqDER))
	if !bytes.Equal(before, stale) {
		t.Error("mid-window revocation must not change the cached response bytes")
	}
	if mustParse(t, stale).Find(id).Status != ocsp.Good {
		t.Error("cached responder must serve stale good until its window rolls over")
	}
	if hits, _ := r.CacheStats(); hits == 0 {
		t.Error("stale serve should have been a cache hit")
	}

	// Next epoch: the window rolls over and the revocation surfaces.
	windowStart := r.windowStart(f.clk.Now())
	f.clk.Set(windowStart.Add(2*time.Hour + time.Minute))
	fresh := mustParse(t, firstBody(respondDER(r, reqDER)))
	if fresh.Find(id).Status != ocsp.Revoked {
		t.Errorf("next-epoch status = %v, want revoked", fresh.Find(id).Status)
	}
}

// TestCachedStaleWithTransientMalformedWindow layers a Window-based
// transient defect (the sheca.com "0" episode) over a caching responder:
// the malformed window interrupts service, but on recovery — still inside
// the same update window — the stale cached response resumes byte-identical.
func TestCachedStaleWithTransientMalformedWindow(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{
		CacheResponses: true,
		Validity:       8 * time.Hour,
		UpdateInterval: 4 * time.Hour,
		Malformed:      MalformedZero,
	})
	reqDER, id := f.request(t)

	f.clk.Set(t0.Add(5 * time.Minute))
	windowStart := r.windowStart(f.clk.Now())
	// Outage fully inside the current update window.
	r.Profile.MalformedWindows = []Window{{From: windowStart.Add(time.Hour), To: windowStart.Add(2 * time.Hour)}}

	good := firstBody(respondDER(r, reqDER))
	if mustParse(t, good).Find(id).Status != ocsp.Good {
		t.Fatal("pre-outage status should be good")
	}
	f.db.Revoke(f.leaf.Certificate.SerialNumber, f.clk.Now(), pkixutil.ReasonKeyCompromise)

	f.clk.Set(windowStart.Add(90 * time.Minute))
	if body, ok := respondDER(r, reqDER); ok || string(body) != "0" {
		t.Fatalf("inside outage window: want \"0\" body, got ok=%v body=%q", ok, body)
	}

	// Recovered, same update window: stale cached bytes, still good.
	f.clk.Set(windowStart.Add(3 * time.Hour))
	recovered := firstBody(respondDER(r, reqDER))
	if !bytes.Equal(good, recovered) {
		t.Error("post-outage same-window response must be the cached bytes")
	}

	// Next update window: revocation finally visible.
	f.clk.Set(windowStart.Add(4*time.Hour + time.Minute))
	if st := mustParse(t, firstBody(respondDER(r, reqDER))).Find(id).Status; st != ocsp.Revoked {
		t.Errorf("next-window status = %v, want revoked", st)
	}
}

// TestOnDemandRevokeSameInstant guards the generation-keyed memoization:
// an on-demand responder may reuse a same-instant response across the
// vantage fan-out, but a Revoke in between must force regeneration — the
// pre-revocation answer would otherwise leak to later vantages.
func TestOnDemandRevokeSameInstant(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{})
	reqDER, id := f.request(t)

	a := mustParse(t, firstBody(respondDER(r, reqDER)))
	if a.Find(id).Status != ocsp.Good {
		t.Fatal("initial status should be good")
	}
	// Same-instant repeat is memoized bytes.
	a2 := firstBody(respondDER(r, reqDER))
	if !bytes.Equal(a.Raw, a2) {
		t.Error("same-instant repeat should serve identical bytes")
	}
	if hits, _ := r.CacheStats(); hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}

	// Revoke without advancing the clock: the memoized entry must die.
	f.db.Revoke(f.leaf.Certificate.SerialNumber, t0, pkixutil.ReasonKeyCompromise)
	b := mustParse(t, firstBody(respondDER(r, reqDER)))
	if b.Find(id).Status != ocsp.Revoked {
		t.Errorf("post-revoke same-instant status = %v, want revoked", b.Find(id).Status)
	}
}

// TestOnDemandSigningBypassesCache: the WithOnDemandSigning escape hatch
// must never hit the cache.
func TestOnDemandSigningBypassesCache(t *testing.T) {
	f := newFixture(t)
	r := New("ocsp.resp.test", f.ca, f.db, f.clk, Profile{}, WithOnDemandSigning())
	reqDER, _ := f.request(t)
	for i := 0; i < 3; i++ {
		if _, ok := respondDER(r, reqDER); !ok {
			t.Fatal("respond failed")
		}
	}
	if hits, misses := r.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("cache stats = %d/%d, want 0/0 with on-demand signing", hits, misses)
	}
}

// TestOnDemandMemoSkippedOnWallClock: an on-demand responder keys its memo
// on the exact instant, which the wall clock never repeats, so it must
// store nothing there — while under a simulated clock the same-tick
// fan-out across vantages is still served from the memo.
func TestOnDemandMemoSkippedOnWallClock(t *testing.T) {
	f := newFixture(t)
	reqDER, _ := f.request(t)
	wall := New("ocsp.resp.test", f.ca, f.db, clock.Real{}, Profile{})
	for i := 0; i < 5; i++ {
		res, err := wall.Respond(context.Background(), reqDER)
		if err != nil || res.Source != SourceSigned {
			t.Fatalf("wall clock: Respond = %v, %v; want a fresh signature", res.Source, err)
		}
	}
	if n := wall.cache.table.Len(); n != 0 {
		t.Errorf("wall clock: memo holds %d entries, want 0", n)
	}

	r := New("ocsp.resp.test", f.ca, f.db, f.clk, Profile{})
	for vantage := 0; vantage < 6; vantage++ {
		res, err := r.Respond(context.Background(), reqDER)
		want := SourceCache
		if vantage == 0 {
			want = SourceSigned
		}
		if err != nil || res.Source != want {
			t.Fatalf("simulated clock, vantage %d: Respond = %v, %v; want %v", vantage, res.Source, err, want)
		}
	}
	if n := r.cache.table.Len(); n != 1 {
		t.Errorf("simulated clock: memo holds %d entries, want 1", n)
	}
}

// TestCachedVsOnDemandSigningEquivalence proves cache transparency at the
// responder level: with the deterministic signer, a caching responder and a
// per-scan-signing twin sharing one database produce byte-identical DER at
// every instant, across profile shapes. (The database stays static during
// the comparison, matching campaign conditions — worlds revoke a month
// before any campaign starts.)
func TestCachedVsOnDemandSigningEquivalence(t *testing.T) {
	profiles := map[string]Profile{
		"on-demand":  {},
		"cached":     {CacheResponses: true, Validity: 4 * time.Hour, UpdateInterval: 2 * time.Hour},
		"multi-inst": {CacheResponses: true, Validity: 4 * time.Hour, UpdateInterval: 2 * time.Hour, Instances: 3, InstanceSkew: 3 * time.Minute},
		"extras":     {ExtraSerials: 5, BlankNextUpdate: true},
	}
	for name, p := range profiles {
		t.Run(name, func(t *testing.T) {
			f := newFixture(t)
			// One leaf revoked up front, so both statuses are exercised.
			f.db.Revoke(f.leaf.Certificate.SerialNumber, t0.Add(-24*time.Hour), pkixutil.ReasonKeyCompromise)
			cached := f.responder(p)
			signer := New("ocsp.resp.test", f.ca, f.db, f.clk, p, WithOnDemandSigning())
			reqDER, _ := f.request(t)

			for i := 0; i < 10; i++ {
				a := firstBody(respondDER(cached, reqDER))
				b := firstBody(respondDER(signer, reqDER))
				if !bytes.Equal(a, b) {
					t.Fatalf("step %d: cached and per-scan-signed DER differ (%d vs %d bytes)", i, len(a), len(b))
				}
				// Repeat at the same instant: the cached twin should now
				// be serving from memory, still byte-identical.
				if i > 2 {
					if a2 := firstBody(respondDER(cached, reqDER)); !bytes.Equal(a2, b) {
						t.Fatalf("step %d: cache-hit bytes diverge", i)
					}
				}
				f.clk.Advance(37 * time.Minute)
			}
			if name != "multi-inst" {
				if hits, _ := cached.CacheStats(); hits == 0 {
					t.Error("cached responder never hit its cache")
				}
			}
		})
	}
}

// TestResponderCacheRaceStress hammers one responder's cache from six
// goroutines across an epoch boundary while revocations land concurrently.
// Run with -race; correctness here is "no race, no panic, every response
// parses", not byte determinism (the interleaving is intentionally wild).
func TestResponderCacheRaceStress(t *testing.T) {
	f := newFixture(t)
	// A second serial so revocations and queries overlap on the same DB.
	leaf2, err := f.ca.IssueLeaf(leafOpts("race.test"))
	if err != nil {
		t.Fatal(err)
	}
	f.db.AddIssued(leaf2.Certificate.SerialNumber, leaf2.Certificate.NotAfter)
	r := f.responder(Profile{CacheResponses: true, Validity: 2 * time.Hour, UpdateInterval: time.Hour})
	reqA, _ := f.request(t)
	reqB := requestFor(t, f, leaf2)

	const goroutines = 6
	var wg sync.WaitGroup
	stopCh := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := reqA
			if g%2 == 1 {
				req = reqB
			}
			for i := 0; ; i++ {
				select {
				case <-stopCh:
					return
				default:
				}
				der, ok := respondDER(r, req)
				if !ok || len(der) == 0 {
					t.Errorf("goroutine %d: bad response at iter %d", g, i)
					return
				}
				if i%64 == 0 {
					if _, err := ocsp.ParseResponse(der); err != nil {
						t.Errorf("goroutine %d: unparseable response: %v", g, err)
						return
					}
				}
			}
		}(g)
	}

	// Drive the clock across several epoch boundaries with concurrent
	// revocations, then stop the hammers.
	for step := 0; step < 40; step++ {
		f.clk.Advance(5 * time.Minute)
		if step == 13 {
			f.db.Revoke(leaf2.Certificate.SerialNumber, f.clk.Now(), pkixutil.ReasonKeyCompromise)
		}
		if step == 27 {
			f.db.Revoke(f.leaf.Certificate.SerialNumber, f.clk.Now(), pkixutil.ReasonCessationOfOperation)
		}
		time.Sleep(time.Millisecond)
	}
	close(stopCh)
	wg.Wait()

	hits, misses := r.CacheStats()
	if hits+misses == 0 {
		t.Error("stress run recorded no cache traffic")
	}
	t.Logf("stress: hits=%d misses=%d", hits, misses)
}
