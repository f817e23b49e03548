package scanner

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

var t0 = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)

// world is a minimal simulated environment: one CA, one responder host, one
// leaf, one vantage.
type world struct {
	net    *netsim.Network
	ca     *pki.CA
	db     *responder.DB
	clk    *clock.Simulated
	leaf   *pki.Leaf
	target Target
}

func newWorld(t testing.TB, profile responder.Profile) *world {
	t.Helper()
	clk := clock.NewSimulated(t0)
	ca, err := pki.NewRootCA(pki.Config{Name: "Scan CA", OCSPURL: "http://ocsp.scan.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"www.scan.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	r := responder.New("ocsp.scan.test", ca, db, clk, profile)
	n := netsim.New()
	n.RegisterHost("ocsp.scan.test", "", ocspserver.NewHandler(r))
	return &world{
		net:  n,
		ca:   ca,
		db:   db,
		clk:  clk,
		leaf: leaf,
		target: Target{
			ResponderURL: "http://ocsp.scan.test",
			Responder:    "ocsp.scan.test",
			Issuer:       ca.Certificate,
			Serial:       leaf.Certificate.SerialNumber,
			Domain:       "www.scan.test",
			Expiry:       leaf.Certificate.NotAfter,
		},
	}
}

func (w *world) client() *Client {
	return &Client{Transport: w.net}
}

func oregon() netsim.Vantage { return netsim.PaperVantages()[0] }

// newCampaign builds a campaign over the test world, failing the test on
// configuration errors.
func newCampaign(t testing.TB, w *world, opts ...Option) *Campaign {
	t.Helper()
	camp, err := NewCampaign(w.client(), w.clk, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

func TestScanGood(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	obs := w.client().Scan(context.Background(), oregon(), t0, w.target)
	if obs.Class != ClassOK {
		t.Fatalf("class = %v, want ok", obs.Class)
	}
	if obs.CertStatus != ocsp.Good {
		t.Errorf("status = %v", obs.CertStatus)
	}
	if obs.HTTPStatus != http.StatusOK {
		t.Errorf("http = %d", obs.HTTPStatus)
	}
	if !obs.HasNextUpdate {
		t.Error("default profile sets nextUpdate")
	}
	if obs.NumSerials != 1 || obs.NumCerts != 0 {
		t.Errorf("serials=%d certs=%d, want 1/0", obs.NumSerials, obs.NumCerts)
	}
	if obs.Latency <= 0 {
		t.Error("latency not recorded")
	}
	if obs.Class.String() != "ok" || !obs.Class.HTTPSuccessful() || !obs.Class.Usable() {
		t.Error("class helpers disagree")
	}
}

func TestScanGETMethod(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	c := w.client()
	c.Method = http.MethodGet
	obs := c.Scan(context.Background(), oregon(), t0, w.target)
	if obs.Class != ClassOK {
		t.Fatalf("GET scan class = %v", obs.Class)
	}
}

func TestScanRevoked(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	revokedAt := t0.Add(-time.Hour)
	w.db.Revoke(w.leaf.Certificate.SerialNumber, revokedAt, pkixutil.ReasonKeyCompromise)
	obs := w.client().Scan(context.Background(), oregon(), t0, w.target)
	if obs.Class != ClassOK || obs.CertStatus != ocsp.Revoked {
		t.Fatalf("got %v/%v, want ok/revoked", obs.Class, obs.CertStatus)
	}
	if !obs.RevokedAt.Equal(revokedAt) || obs.Reason != pkixutil.ReasonKeyCompromise {
		t.Errorf("revocation details: %v %v", obs.RevokedAt, obs.Reason)
	}
}

func TestScanClassification(t *testing.T) {
	cases := []struct {
		name    string
		profile responder.Profile
		rule    *netsim.Rule
		want    FailureClass
	}{
		{"dns", responder.Profile{}, &netsim.Rule{Host: "ocsp.scan.test", Kind: netsim.FailDNS}, ClassDNS},
		{"tcp", responder.Profile{}, &netsim.Rule{Host: "ocsp.scan.test", Kind: netsim.FailTCP}, ClassTCP},
		{"tls", responder.Profile{}, &netsim.Rule{Host: "ocsp.scan.test", Kind: netsim.FailTLS}, ClassTLS},
		{"http404", responder.Profile{}, &netsim.Rule{Host: "ocsp.scan.test", Kind: netsim.FailHTTP, HTTPStatus: 404}, ClassHTTPStatus},
		{"http500", responder.Profile{}, &netsim.Rule{Host: "ocsp.scan.test", Kind: netsim.FailHTTP, HTTPStatus: 500}, ClassHTTPStatus},
		{"malformed-zero", responder.Profile{Malformed: responder.MalformedZero}, nil, ClassASN1},
		{"malformed-js", responder.Profile{Malformed: responder.MalformedJavaScript}, nil, ClassASN1},
		{"serial-unmatch", responder.Profile{SerialMismatch: true}, nil, ClassSerialUnmatch},
		{"bad-signature", responder.Profile{BadSignature: true}, nil, ClassSignature},
		{"try-later", responder.Profile{ErrorStatus: ocsp.StatusTryLater}, nil, ClassOCSPError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t, tc.profile)
			if tc.rule != nil {
				w.net.AddRule(tc.rule)
			}
			obs := w.client().Scan(context.Background(), oregon(), t0, w.target)
			if obs.Class != tc.want {
				t.Errorf("class = %v, want %v", obs.Class, tc.want)
			}
		})
	}
}

func TestScanUnregisteredResponder(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	tgt := w.target
	tgt.ResponderURL = "http://ocsp.gone.test"
	obs := w.client().Scan(context.Background(), oregon(), t0, tgt)
	if obs.Class != ClassDNS {
		t.Errorf("class = %v, want dns for vanished responder", obs.Class)
	}
}

func TestCampaignRunAndExpiry(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	// A second target that expires halfway through the campaign.
	shortLeaf, err := w.ca.IssueLeaf(pki.LeafOptions{
		DNSNames:  []string{"short.scan.test"},
		NotBefore: t0.AddDate(0, -1, 0),
		NotAfter:  t0.Add(5 * time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	w.db.AddIssued(shortLeaf.Certificate.SerialNumber, shortLeaf.Certificate.NotAfter)
	shortTarget := Target{
		ResponderURL: "http://ocsp.scan.test",
		Responder:    "ocsp.scan.test",
		Issuer:       w.ca.Certificate,
		Serial:       shortLeaf.Certificate.SerialNumber,
		Expiry:       shortLeaf.Certificate.NotAfter,
	}

	camp := newCampaign(t, w,
		WithVantages(netsim.PaperVantages()[:2]...),
		WithTargets(w.target, shortTarget),
		WithWindow(t0, t0.Add(10*time.Hour)),
	)
	var all []Observation
	n, err := camp.Run(context.Background(), aggregatorFunc(func(o Observation) { all = append(all, o) }))
	if err != nil {
		t.Fatal(err)
	}
	// 10 rounds × 2 vantages × 2 targets, minus the rounds after the
	// short target expired (hours 6..9 = 4 rounds × 2 vantages).
	want := 10*2*2 - 4*2
	if n != want || len(all) != want {
		t.Errorf("lookups = %d (recorded %d), want %d", n, len(all), want)
	}
	for _, o := range all {
		if o.Class != ClassOK {
			t.Fatalf("unexpected failure: %+v", o)
		}
	}
}

func TestCampaignErrors(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	if _, err := NewCampaign(nil, w.clk); err == nil {
		t.Error("campaign without client should fail")
	}
	if _, err := NewCampaign(w.client(), nil); err == nil {
		t.Error("campaign without clock should fail")
	}
	bad := []struct {
		name string
		opt  Option
	}{
		{"end-before-start", WithWindow(t0, t0.Add(-time.Hour))},
		{"no-vantages", WithVantages()},
		{"zero-stride", WithStride(0)},
		{"negative-workers", WithWorkers(-1)},
		{"negative-attempts", WithRetryPolicy(RetryPolicy{Attempts: -1})},
		{"bad-jitter", WithRetryPolicy(RetryPolicy{Attempts: 2, Jitter: 1.5})},
		{"nil-metrics", WithMetrics(nil)},
	}
	for _, tc := range bad {
		if _, err := NewCampaign(w.client(), w.clk, tc.opt); err == nil {
			t.Errorf("%s: NewCampaign should reject the option", tc.name)
		}
	}
}

type aggregatorFunc func(Observation)

func (f aggregatorFunc) Add(o Observation) { f(o) }

func TestAvailabilityAggregation(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	// Outage visible from Oregon only, hours 3–5.
	w.net.AddRule(&netsim.Rule{
		Host:     "ocsp.scan.test",
		Vantages: []string{"Oregon"},
		Windows:  []netsim.Window{{From: t0.Add(3 * time.Hour), To: t0.Add(5 * time.Hour)}},
		Kind:     netsim.FailTCP,
	})
	avail := NewAvailabilitySeries(time.Hour)
	impact := NewDomainImpact(time.Hour, 100)
	ra := NewResponderAvailability()
	camp := newCampaign(t, w,
		WithVantages(netsim.PaperVantages()[:3]...), // Oregon, Virginia, Sao-Paulo
		WithTargets(w.target),
		WithWindow(t0, t0.Add(10*time.Hour)),
	)
	if _, err := camp.Run(context.Background(), avail, impact, ra); err != nil {
		t.Fatal(err)
	}

	// Oregon failed 2/10 rounds.
	if got := avail.OverallFailureRate("Oregon"); got < 0.199 || got > 0.201 {
		t.Errorf("Oregon failure rate = %v, want 0.2", got)
	}
	if got := avail.OverallFailureRate("Virginia"); got != 0 {
		t.Errorf("Virginia failure rate = %v, want 0", got)
	}
	if got := avail.AverageFailureRate(); got < 0.06 || got > 0.07 {
		t.Errorf("average failure rate = %v, want ~0.0667", got)
	}
	buckets, rates := avail.Series("Oregon")
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	if rates[3] != 0 || rates[4] != 0 || rates[5] != 1 {
		t.Errorf("outage window rates = %v", rates)
	}

	// Impact: 1 probed domain × weight 100 per failing bucket.
	at, peak := impact.Peak("Oregon")
	if peak != 100 {
		t.Errorf("peak impact = %d, want 100", peak)
	}
	if !at.Equal(t0.Add(3*time.Hour)) && !at.Equal(t0.Add(4*time.Hour)) {
		t.Errorf("peak at %v", at)
	}
	if _, p := impact.Peak("Virginia"); p != 0 {
		t.Errorf("Virginia impact = %d, want 0", p)
	}

	// Outage classification: transient (failed and recovered).
	if got := ra.WithOutages(); len(got) != 1 || got[0] != "ocsp.scan.test" {
		t.Errorf("WithOutages = %v", got)
	}
	if got := ra.AlwaysDead(); len(got) != 0 {
		t.Errorf("AlwaysDead = %v", got)
	}
	if got := ra.PersistentlyFailing(); len(got) != 0 {
		t.Errorf("PersistentlyFailing = %v", got)
	}
}

func TestAlwaysDeadAndPersistent(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	// Register a second responder that never works anywhere, and a
	// third that fails only from Seoul.
	ca2, _ := pki.NewRootCA(pki.Config{Name: "Dead CA", OCSPURL: "http://ocsp.dead.test"})
	leaf2, _ := ca2.IssueLeaf(pki.LeafOptions{DNSNames: []string{"dead.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	w.net.AddRule(&netsim.Rule{Host: "ocsp.dead.test", Kind: netsim.FailTCP})

	ca3, _ := pki.NewRootCA(pki.Config{Name: "Seoul-broken CA", OCSPURL: "http://ocsp.seoulfail.test"})
	leaf3, _ := ca3.IssueLeaf(pki.LeafOptions{DNSNames: []string{"seoulfail.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	db3 := responder.NewDB()
	db3.AddIssued(leaf3.Certificate.SerialNumber, leaf3.Certificate.NotAfter)
	w.net.RegisterHost("ocsp.seoulfail.test", "", ocspserver.NewHandler(responder.New("ocsp.seoulfail.test", ca3, db3, w.clk, responder.Profile{})))
	w.net.AddRule(&netsim.Rule{Host: "ocsp.seoulfail.test", Vantages: []string{"Seoul"}, Kind: netsim.FailDNS})

	targets := []Target{
		w.target,
		{ResponderURL: "http://ocsp.dead.test", Responder: "ocsp.dead.test", Issuer: ca2.Certificate, Serial: leaf2.Certificate.SerialNumber},
		{ResponderURL: "http://ocsp.seoulfail.test", Responder: "ocsp.seoulfail.test", Issuer: ca3.Certificate, Serial: leaf3.Certificate.SerialNumber},
	}
	ra := NewResponderAvailability()
	camp := newCampaign(t, w, WithTargets(targets...), WithWindow(t0, t0.Add(3*time.Hour)))
	if _, err := camp.Run(context.Background(), ra); err != nil {
		t.Fatal(err)
	}
	if got := ra.AlwaysDead(); len(got) != 1 || got[0] != "ocsp.dead.test" {
		t.Errorf("AlwaysDead = %v", got)
	}
	if got := ra.PersistentlyFailing(); len(got) != 1 || got[0] != "ocsp.seoulfail.test" {
		t.Errorf("PersistentlyFailing = %v", got)
	}
	if ra.NumResponders() != 3 {
		t.Errorf("NumResponders = %d", ra.NumResponders())
	}
}

func TestUnusableAggregation(t *testing.T) {
	// Three responders: healthy, windowed-malformed, bad signature.
	w := newWorld(t, responder.Profile{})
	addResponder := func(host string, p responder.Profile) Target {
		ca, _ := pki.NewRootCA(pki.Config{Name: host + " CA", OCSPURL: "http://" + host})
		leaf, _ := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{host + ".site"}, NotBefore: t0.AddDate(0, -1, 0)})
		db := responder.NewDB()
		db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
		w.net.RegisterHost(host, "", ocspserver.NewHandler(responder.New(host, ca, db, w.clk, p)))
		return Target{ResponderURL: "http://" + host, Responder: host, Issuer: ca.Certificate, Serial: leaf.Certificate.SerialNumber}
	}
	malformed := addResponder("ocsp.sheca.test", responder.Profile{
		Malformed:        responder.MalformedZero,
		MalformedWindows: []responder.Window{{From: t0.Add(4 * time.Hour), To: t0.Add(6 * time.Hour)}},
	})
	badsig := addResponder("ocsp.badsig.test", responder.Profile{BadSignature: true})

	u := NewUnusableSeries(time.Hour)
	camp := newCampaign(t, w,
		WithVantages(netsim.PaperVantages()[:1]...),
		WithTargets(w.target, malformed, badsig),
		WithWindow(t0, t0.Add(8*time.Hour)),
	)
	if _, err := camp.Run(context.Background(), u); err != nil {
		t.Fatal(err)
	}
	asn1, serial, sig, total := u.Totals()
	if total != 24 {
		t.Fatalf("total = %d, want 24", total)
	}
	if asn1 != 2 { // 2 hours of "0" bodies from one responder, one vantage
		t.Errorf("asn1 = %d, want 2", asn1)
	}
	if sig != 8 { // badsig always
		t.Errorf("signature = %d, want 8", sig)
	}
	if serial != 0 {
		t.Errorf("serial = %d, want 0", serial)
	}
	buckets, asn1Pct, _, sigPct := u.Series()
	if len(buckets) != 8 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	// Inside the malformed window: 1 of 3 responses unusable by ASN.1.
	if asn1Pct[4] < 33 || asn1Pct[4] > 34 {
		t.Errorf("asn1%% in window = %v", asn1Pct[4])
	}
	if asn1Pct[0] != 0 {
		t.Errorf("asn1%% before window = %v", asn1Pct[0])
	}
	for _, p := range sigPct {
		if p < 33 || p > 34 {
			t.Errorf("sig%% = %v, want ~33.3 every bucket", p)
		}
	}
}

func TestQualityAggregation(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	add := func(host string, p responder.Profile) Target {
		ca, _ := pki.NewRootCA(pki.Config{Name: host + " CA", OCSPURL: "http://" + host})
		leaf, _ := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{host + ".site"}, NotBefore: t0.AddDate(0, -1, 0)})
		db := responder.NewDB()
		db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
		w.net.RegisterHost(host, "", ocspserver.NewHandler(responder.New(host, ca, db, w.clk, p)))
		return Target{ResponderURL: "http://" + host, Responder: host, Issuer: ca.Certificate, Serial: leaf.Certificate.SerialNumber}
	}
	blank := add("ocsp.blank.test", responder.Profile{BlankNextUpdate: true})
	multi := add("ocsp.multi.test", responder.Profile{ExtraSerials: 19})
	zeroMargin := add("ocsp.zm.test", responder.Profile{NoDefaultMargin: true})
	future := add("ocsp.future.test", responder.Profile{ThisUpdateOffset: -10 * time.Minute, NoDefaultMargin: true})
	cached := add("ocsp.cached.test", responder.Profile{CacheResponses: true, Validity: 2 * time.Hour, UpdateInterval: 2 * time.Hour})

	q := NewQualityAggregator()
	camp := newCampaign(t, w,
		WithVantages(netsim.PaperVantages()[:1]...),
		WithTargets(w.target, blank, multi, zeroMargin, future, cached),
		WithWindow(t0, t0.Add(12*time.Hour)),
	)
	if _, err := camp.Run(context.Background(), q); err != nil {
		t.Fatal(err)
	}

	if q.NumResponders() != 6 {
		t.Fatalf("responders = %d", q.NumResponders())
	}
	if got := q.BlankNextUpdateCount(); got != 1 {
		t.Errorf("blank nextUpdate responders = %d, want 1", got)
	}
	if got := q.ZeroMarginCount(1); got != 1 {
		t.Errorf("zero-margin responders = %d, want 1", got)
	}
	if got := q.FutureThisUpdateCount(); got != 1 {
		t.Errorf("future-thisUpdate responders = %d, want 1", got)
	}

	// Figure 7: the multi responder averages 20 serials.
	serialCDF := q.SerialCountCDF()
	if got := serialCDF.CountAbove(1.5); got != 1 {
		t.Errorf("responders averaging >1.5 serials = %d, want 1", got)
	}
	if got := serialCDF.Quantile(1.0); got != 20 {
		t.Errorf("max avg serials = %v, want 20", got)
	}

	// Figure 8: the blank responder has infinite validity.
	if got := q.ValidityCDF().CountInf(); got != 1 {
		t.Errorf("infinite-validity responders = %d, want 1", got)
	}

	// §5.4: on-demand classification.
	onDemand := map[string]bool{}
	nonOverlap := map[string]bool{}
	for _, st := range q.OnDemand() {
		onDemand[st.Responder] = st.OnDemand
		nonOverlap[st.Responder] = st.NonOverlapping
	}
	if !onDemand["ocsp.scan.test"] {
		t.Error("default responder should classify as on-demand")
	}
	if onDemand["ocsp.cached.test"] {
		t.Error("caching responder should not classify as on-demand")
	}
	if !nonOverlap["ocsp.cached.test"] {
		t.Error("validity == update interval should flag non-overlapping")
	}
}

// TestOnDemandMedianGapMatchesSlice checks the counted update-interval gaps
// against the slice of every gap they replaced: over random producedAt
// sequences (repeats, stale instances going backwards, a responder's few
// update intervals, and arbitrary jumps), OnDemand reports the slice's
// sorted(gaps)[len/2] for every responder.
func TestOnDemandMedianGapMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewQualityAggregator()
	want := map[string]float64{}
	seen := 0
	for r := 0; r < 200; r++ {
		name := fmt.Sprintf("ocsp%03d.test", r)
		intervals := []time.Duration{time.Hour, 2 * time.Hour, 24 * time.Hour}[:1+rng.Intn(3)]
		var gaps []float64
		var last time.Time
		produced := t0
		n := rng.Intn(300)
		if n > 0 {
			seen++
		}
		for i := 0; i < n; i++ {
			switch x := rng.Intn(100); {
			case x < 30: // the same response again
			case x < 35:
				produced = produced.Add(-time.Duration(rng.Intn(7200)) * time.Second)
			case x < 45:
				produced = produced.Add(time.Duration(1+rng.Intn(86400)) * time.Second)
			default:
				produced = produced.Add(intervals[rng.Intn(len(intervals))])
			}
			if !last.IsZero() && !produced.Equal(last) {
				if gap := produced.Sub(last).Seconds(); gap >= 0 {
					gaps = append(gaps, gap)
				}
			}
			last = produced
			q.Add(Observation{
				Responder: name, Class: ClassOK, At: produced.Add(time.Hour),
				ProducedAt: produced, ThisUpdate: produced,
				NextUpdate: produced.Add(3 * time.Hour), HasNextUpdate: true,
			})
		}
		if len(gaps) > 0 {
			sort.Float64s(gaps)
			want[name] = gaps[len(gaps)/2]
		}
	}
	stats := q.OnDemand()
	if len(stats) != seen {
		t.Fatalf("OnDemand reports %d responders, want %d", len(stats), seen)
	}
	for _, st := range stats {
		if st.OnDemand {
			t.Fatalf("%s: classified on-demand with producedAt an hour before receipt", st.Responder)
		}
		if st.UpdateIntervalSec != want[st.Responder] {
			t.Fatalf("%s: update interval %v s, want the slice median %v s", st.Responder, st.UpdateIntervalSec, want[st.Responder])
		}
	}
}
