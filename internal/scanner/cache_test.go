package scanner

import (
	"bytes"
	"context"
	"crypto"
	"fmt"
	"sync"
	"testing"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

// responseBody fetches one raw OCSP response body for the world's leaf
// straight from a responder, bypassing the network.
func responseBody(t testing.TB, w *world) []byte {
	t.Helper()
	r := responder.New("ocsp.scan.test", w.ca, w.db, w.clk, responder.Profile{})
	req, err := ocsp.NewRequestForSerial(w.leaf.Certificate.SerialNumber, w.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	der, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	body, ok := respondDER(r, der)
	if !ok {
		t.Fatal("responder declined request")
	}
	return body
}

// TestParseCacheCollision forces two distinct equal-length bodies onto the
// same (hash, length) cache key and demands that neither is served the
// other's parse. Real FNV-64 collisions are infeasible to construct, so the
// test hands parseResponse the same hash for both bodies.
func TestParseCacheCollision(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	good := responseBody(t, w)

	// Same length, different bytes: corrupt the outer SEQUENCE tag so the
	// second body is unparseable — unambiguously distinguishable from the
	// first body's successful parse.
	bad := make([]byte, len(good))
	copy(bad, good)
	bad[0] ^= 0xFF

	c := &Client{Transport: w.net}
	h := hashx.Sum64(good)

	resp, err := c.parseResponse(h, good)
	if err != nil || resp == nil {
		t.Fatalf("parse of valid body: resp=%v err=%v", resp, err)
	}

	// The colliding body must be parsed on its own merits, not served the
	// cached result for `good`.
	collResp, collErr := c.parseResponse(h, bad)
	if collErr == nil {
		t.Fatalf("collision served the cached parse: resp=%v", collResp)
	}

	// The collision overwrote the slot; the original body must again
	// parse correctly rather than inherit the corrupted entry.
	resp2, err2 := c.parseResponse(h, good)
	if err2 != nil || resp2 == nil {
		t.Fatalf("re-parse of valid body after collision: resp=%v err=%v", resp2, err2)
	}
	if len(resp2.Responses) != 1 ||
		resp2.Responses[0].CertID.Serial.Cmp(w.leaf.Certificate.SerialNumber) != 0 {
		t.Fatalf("re-parse returned wrong response: %+v", resp2.Responses)
	}
}

// TestShardedCacheEviction checks the bounded per-shard eviction of the
// client's parse cache: a shard over budget is trimmed to half, never
// wholesale-reset, and the just-inserted entry always survives.
func TestShardedCacheEviction(t *testing.T) {
	var c Client
	const budget = parseShardBudget
	// Hashes i<<6 all select shard 0 (low six bits zero, high word zero).
	for i := 0; i < 3*budget; i++ {
		h := uint64(i) << 6
		c.parseCache.Put(h, parseKey{hash: h, length: i}, parsedEntry{body: []byte{byte(i)}}, budget)
		if e, ok := c.parseCache.Get(h, parseKey{hash: h, length: i}); !ok || e.body[0] != byte(i) {
			t.Fatalf("entry %d missing immediately after insert", i)
		}
	}
	if n := c.parseCache.Len(); n > budget {
		t.Fatalf("shard grew past its budget: %d entries > %d", n, budget)
	}
	if n := c.parseCache.Len(); n < budget/2 {
		t.Fatalf("eviction dropped too much: %d entries < %d", n, budget/2)
	}
}

// TestVerifyCacheCollision forces one hash for a validly signed body and
// for a copy whose last signature byte is flipped. The copy still parses
// but fails signature validation, so it must not be served the verdict
// cached for the original; the original's verdict must survive the
// collision's refill.
func TestVerifyCacheCollision(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	good := responseBody(t, w)
	forged := bytes.Clone(good)
	forged[len(forged)-1] ^= 0x01

	goodResp, err := ocsp.ParseResponse(good)
	if err != nil {
		t.Fatal(err)
	}
	forgedResp, err := ocsp.ParseResponse(forged)
	if err != nil {
		t.Fatalf("forged body must still parse: %v", err)
	}
	if err := forgedResp.CheckSignatureFrom(w.ca.Certificate); err == nil {
		t.Fatal("flipping the last byte left the signature valid")
	}

	c := &Client{Transport: w.net}
	p := c.newProbe(w.target)
	h := hashx.Sum64(good)
	if !c.checkSignature(h, goodResp, &p) {
		t.Fatal("valid signature rejected")
	}
	if c.checkSignature(h, forgedResp, &p) {
		t.Fatal("forged body was served the valid body's cached verdict")
	}
	if !c.checkSignature(h, goodResp, &p) {
		t.Fatal("valid signature rejected after the collision")
	}
}

// TestClientCacheStress hammers both client caches from many goroutines —
// including the forced-collision parse path — so the race detector (tier
// 2) can observe any unsynchronized access.
func TestClientCacheStress(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	good := responseBody(t, w)
	bad := make([]byte, len(good))
	copy(bad, good)
	bad[0] ^= 0xFF
	h := hashx.Sum64(good)

	c := &Client{Transport: w.net}
	p := c.newProbe(w.target)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				resp, err := c.parseResponse(h, good)
				if err != nil {
					t.Errorf("parse good: %v", err)
					return
				}
				if _, err := c.parseResponse(h, bad); err == nil {
					t.Error("collision body parsed cleanly")
					return
				}
				if !c.checkSignature(h, resp, &p) {
					t.Error("signature rejected")
					return
				}
				obs := c.Scan(context.Background(), oregon(), w.clk.Now(), w.target)
				if obs.Class != ClassOK {
					t.Errorf("scan class %v", obs.Class)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkClientCaches drives the parse and verify caches from all procs
// at once: the all-hit steady state a campaign settles into, where the
// seed's single client mutex serialized every worker.
func BenchmarkClientCaches(b *testing.B) {
	w := newWorld(b, responder.Profile{})

	// A spread of distinct bodies/targets so shards see mixed traffic.
	const variants = 32
	bodies := make([][]byte, variants)
	c := &Client{Transport: w.net}
	probes := make([]probe, variants)
	for i := range bodies {
		leaf, err := w.ca.IssueLeaf(pki.LeafOptions{
			DNSNames:  []string{fmt.Sprintf("bench%02d.scan.test", i)},
			NotBefore: t0.AddDate(0, -1, 0),
		})
		if err != nil {
			b.Fatal(err)
		}
		w.db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
		tgt := w.target
		tgt.Serial = leaf.Certificate.SerialNumber
		probes[i] = c.newProbe(tgt)
		wl := &world{ca: w.ca, db: w.db, clk: clock.NewSimulated(t0), leaf: leaf}
		bodies[i] = responseBody(b, wl)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			v := i % variants
			i++
			h := hashx.Sum64(bodies[v]) // once per lookup, as scanOnce does
			resp, err := c.parseResponse(h, bodies[v])
			if err != nil {
				b.Fatal(err)
			}
			if !c.checkSignature(h, resp, &probes[v]) {
				b.Fatal("signature rejected")
			}
		}
	})
}

// respondDER adapts context-first Respond to the (body, ok) shape this
// test asserts against.
func respondDER(r *responder.Responder, reqDER []byte) ([]byte, bool) {
	res, err := r.Respond(context.Background(), reqDER)
	if err != nil {
		return nil, false
	}
	return res.DER, !res.Malformed
}
