package scanner

import (
	"bytes"
	"context"
	"crypto"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
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
	res, err := r.Respond(context.Background(), der)
	if err != nil || res.Malformed {
		t.Fatalf("responder declined request: %v", err)
	}
	return res.DER
}

// slotBodies returns a validly signed body for the world's target, a
// same-length copy whose outer SEQUENCE tag is flipped (unparseable), and
// a copy whose last signature byte is flipped (parses, fails signature
// validation).
func slotBodies(t *testing.T, w *world) (good, unparseable, forged []byte) {
	t.Helper()
	good = responseBody(t, w)
	unparseable = bytes.Clone(good)
	unparseable[0] ^= 0xFF
	forged = bytes.Clone(good)
	forged[len(forged)-1] ^= 0x01
	return good, unparseable, forged
}

// reusingTransport answers every exchange with 200 and the next of its
// bodies, copied into one buffer it reuses, as a pooling transport may.
type reusingTransport struct {
	bodies [][]byte
	next   int
	buf    []byte
}

func (rt *reusingTransport) Do(netsim.Vantage, time.Time, *http.Request) (*netsim.Result, error) {
	rt.buf = append(rt.buf[:0], rt.bodies[rt.next]...)
	rt.next++
	return &netsim.Result{Status: http.StatusOK, Body: rt.buf}, nil
}

// scanSequence scans one probe once per body, the transport handing
// every body over in the same buffer, and checks each lookup's class and
// the parses and signature checks the sequence cost.
func scanSequence(t *testing.T, w *world, bodies [][]byte, want []FailureClass, parses, checks int64) {
	t.Helper()
	c := &Client{
		Transport: &reusingTransport{bodies: bodies},
		Metrics:   metrics.NewRegistry(),
	}
	p := c.newProbe(w.target)
	for i, class := range want {
		if got := c.scanProbe(context.Background(), RetryPolicy{}, oregon(), t0, p).Class; got != class {
			t.Errorf("lookup %d: class %v, want %v", i, got, class)
		}
	}
	snap := c.Metrics.Snapshot()
	if got := snap.Counters["scanner_parses_total"]; got != parses {
		t.Errorf("parses = %d, want %d", got, parses)
	}
	if got := snap.Counters["scanner_signature_checks_total"]; got != checks {
		t.Errorf("signature checks = %d, want %d", got, checks)
	}
}

// TestParseCacheCollision hands one probe's slot a valid body, a
// same-length copy whose outer tag is flipped and the valid body again.
// The copy must be parsed on its own bytes, not served the valid body's
// parse, and the valid body must parse again after it: three parses, and
// no check of the unparseable copy.
func TestParseCacheCollision(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	good, unparseable, _ := slotBodies(t, w)
	scanSequence(t, w, [][]byte{good, unparseable, good},
		[]FailureClass{ClassOK, ClassASN1, ClassOK}, 3, 2)
}

// TestVerifyCacheCollision hands one probe's slot a valid body, a copy
// whose last signature byte is flipped and the valid body again. The copy
// parses but must fail signature validation rather than inherit the valid
// body's verdict, and the valid body must verify again after it.
func TestVerifyCacheCollision(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	good, _, forged := slotBodies(t, w)
	scanSequence(t, w, [][]byte{good, forged, good},
		[]FailureClass{ClassOK, ClassSignature, ClassOK}, 3, 3)
}

// TestProbeSlotSharesIdenticalBodies checks that a second lookup whose
// body is byte-identical to the first, though in a different buffer,
// reuses the first lookup's entry: one parse and one verification.
func TestProbeSlotSharesIdenticalBodies(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	good := responseBody(t, w)
	c := &Client{
		Transport: &reusingTransport{bodies: [][]byte{good, bytes.Clone(good)}},
		Metrics:   metrics.NewRegistry(),
	}
	p := c.newProbe(w.target)
	ctx := context.Background()
	if got := c.scanProbe(ctx, RetryPolicy{}, oregon(), t0, p).Class; got != ClassOK {
		t.Fatalf("first lookup: class %v", got)
	}
	first := p.last.Load()
	if got := c.scanProbe(ctx, RetryPolicy{}, oregon(), t0, p).Class; got != ClassOK {
		t.Fatalf("second lookup: class %v", got)
	}
	if second := p.last.Load(); second != first {
		t.Error("identical bytes were parsed into a second entry")
	}
	if !bytes.Equal(first.body, good) || !bytes.Equal(first.resp.Raw, good) {
		t.Error("the entry does not hold the body it was parsed from")
	}
	snap := c.Metrics.Snapshot()
	if parses, checks := snap.Counters["scanner_parses_total"], snap.Counters["scanner_signature_checks_total"]; parses != 1 || checks != 1 {
		t.Errorf("parses = %d, signature checks = %d; want 1 and 1", parses, checks)
	}
}

// byVantage serves a fixed body per vantage name.
type byVantage map[string][]byte

func (bv byVantage) Do(v netsim.Vantage, _ time.Time, _ *http.Request) (*netsim.Result, error) {
	return &netsim.Result{Status: http.StatusOK, Body: bv[v.Name]}, nil
}

// TestProbeSlotConcurrent has eight goroutines scan one probe, each
// alternating between a vantage served a valid body and one served a
// forged copy, so entries are replaced while other goroutines read them.
// It runs under -short too: make racecheck covers the slot through it.
func TestProbeSlotConcurrent(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	good, _, forged := slotBodies(t, w)
	vs := netsim.PaperVantages()[:2]
	c := &Client{Transport: byVantage{vs[0].Name: good, vs[1].Name: forged}}
	p := c.newProbe(w.target)
	want := []FailureClass{ClassOK, ClassSignature}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % 2
				if got := c.scanProbe(context.Background(), RetryPolicy{}, vs[k], t0, p).Class; got != want[k] {
					t.Errorf("goroutine %d lookup %d from %s: class %v, want %v", g, i, vs[k].Name, got, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCampaignParsesOncePerWindow runs a one-worker campaign over one
// target from six vantages against a responder that signs one response
// per 6-hour update window. Every vantage sees the same bytes within a
// window, so the campaign must parse and verify exactly once per window
// its rounds span.
func TestCampaignParsesOncePerWindow(t *testing.T) {
	w := newWorld(t, responder.NewProfile(responder.WithValidity(24*time.Hour), responder.WithCachedResponses(6*time.Hour)))
	c := w.client()
	c.Metrics = metrics.NewRegistry()
	camp, err := NewCampaign(c, w.clk,
		WithTargets(w.target),
		WithVantages(netsim.PaperVantages()...),
		WithWindow(t0, t0.Add(24*time.Hour)),
		WithStride(time.Hour),
		WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	n, err := camp.Run(context.Background(), aggregatorFunc(func(o Observation) { obs = append(obs, o) }))
	if err != nil {
		t.Fatal(err)
	}
	if n != 24*6 {
		t.Fatalf("%d lookups, want %d", n, 24*6)
	}
	windows := map[time.Time]bool{}
	for _, o := range obs {
		if o.Class != ClassOK {
			t.Fatalf("%s at %v: class %v", o.Vantage, o.At, o.Class)
		}
		windows[o.ProducedAt] = true
	}
	// 24 hourly rounds span four 6-hour windows, or five when the
	// responder's window phase does not fall on a round.
	k := int64(len(windows))
	if k != 4 && k != 5 {
		t.Fatalf("rounds span %d update windows, want 4 or 5", k)
	}
	snap := c.Metrics.Snapshot()
	if got := snap.Counters["scanner_parses_total"]; got != k {
		t.Errorf("parses = %d, want %d (one per update window)", got, k)
	}
	if got := snap.Counters["scanner_signature_checks_total"]; got != k {
		t.Errorf("signature checks = %d, want %d (one per update window)", got, k)
	}
}
