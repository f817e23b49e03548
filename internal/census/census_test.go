package census

import (
	"context"
	"math"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// corpusStats measures the default-scale corpus for seed, streaming.
func corpusStats(t *testing.T, seed int64) SnapshotStats {
	t.Helper()
	c, err := NewCorpus(CorpusConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSnapshotMarginals(t *testing.T) {
	st := corpusStats(t, 1)

	// Valid fraction ≈ 23% (112.8M / 489.6M).
	validFrac := float64(st.Valid) / float64(st.Total)
	if math.Abs(validFrac-0.2305) > 0.01 {
		t.Errorf("valid fraction = %v, want ≈0.23", validFrac)
	}
	// OCSP fraction of valid ≈ 95.4%.
	if math.Abs(st.OCSPFractionOfValid-0.954) > 0.01 {
		t.Errorf("OCSP fraction = %v, want ≈0.954", st.OCSPFractionOfValid)
	}
	// Must-Staple: exact.
	if st.MustStaple != PaperMustStapleCerts {
		t.Errorf("MustStaple = %d, want %d", st.MustStaple, PaperMustStapleCerts)
	}
	for ca, want := range PaperMustStapleByCA {
		if st.MustStapleByCA[ca] != want {
			t.Errorf("MustStapleByCA[%s] = %d, want %d", ca, st.MustStapleByCA[ca], want)
		}
	}
	// Must-Staple fraction ≈ 0.02% of valid.
	if st.MustStapleFractionOfValid < 0.0001 || st.MustStapleFractionOfValid > 0.0006 {
		t.Errorf("MustStaple fraction = %v, want ≈0.0003 (0.02–0.03%%)", st.MustStapleFractionOfValid)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	a := corpusStats(t, 42)
	b := corpusStats(t, 42)
	if a.Valid != b.Valid || a.OCSP != b.OCSP {
		t.Error("same seed should give identical snapshots")
	}
	c := corpusStats(t, 43)
	if a.Valid == c.Valid && a.OCSP == c.OCSP {
		t.Error("different seeds should differ")
	}
}

func TestAlexaModel(t *testing.T) {
	st := NewAlexaModel(AlexaConfig{Seed: 1, Domains: 50_000}).Stats()
	if st.Domains != 50_000 {
		t.Fatalf("domains = %d", st.Domains)
	}
	httpsRate := float64(st.HTTPS) / float64(st.Domains)
	if httpsRate < 0.70 || httpsRate > 0.80 {
		t.Errorf("HTTPS rate = %v, want ≈0.75", httpsRate)
	}
	// §4: OCSP adoption 91.3% on average among HTTPS domains.
	if st.OCSPRate < 0.89 || st.OCSPRate > 0.94 {
		t.Errorf("OCSP rate = %v, want ≈0.913", st.OCSPRate)
	}
	// §7.1: roughly 35% stapling.
	if st.StaplingRate < 0.30 || st.StaplingRate > 0.40 {
		t.Errorf("stapling rate = %v, want ≈0.35", st.StaplingRate)
	}
	// Exactly 100 Must-Staple domains.
	if st.MustStaple != 100 {
		t.Errorf("MustStaple domains = %d, want 100", st.MustStaple)
	}
	// 128 responders, all seen.
	if st.RespondersSeen < 100 || st.RespondersSeen > 128 {
		t.Errorf("responders seen = %d", st.RespondersSeen)
	}
	if got := (&AlexaConfig{Domains: 50_000}).ScaleFactor(); got != 20 {
		t.Errorf("scale factor = %d", got)
	}
}

func TestAlexaPopularityGradient(t *testing.T) {
	// Figures 2 and 11: popular domains are more likely to support
	// OCSP and stapling.
	m := NewAlexaModel(AlexaConfig{Seed: 3, Domains: 100_000})
	_, ocspBins := m.Figure2(10_000)
	if len(ocspBins) != 10 {
		t.Fatalf("bins = %d", len(ocspBins))
	}
	if ocspBins[0].Rate <= ocspBins[len(ocspBins)-1].Rate {
		t.Errorf("OCSP adoption should fall with rank: first %v last %v", ocspBins[0].Rate, ocspBins[len(ocspBins)-1].Rate)
	}
	st11 := m.Figure11(10_000)
	if st11[0].Rate <= st11[len(st11)-1].Rate {
		t.Errorf("stapling should fall with rank: first %v last %v", st11[0].Rate, st11[len(st11)-1].Rate)
	}
	// The top bin should staple noticeably above the bottom bin (the
	// paper shows ~45% → ~28%).
	if st11[0].Rate-st11[len(st11)-1].Rate < 0.1 {
		t.Errorf("stapling gradient too flat: %v → %v", st11[0].Rate, st11[len(st11)-1].Rate)
	}
}

func TestResponderConcentration(t *testing.T) {
	// §5.2: popular domains' certificates concentrate on few
	// responders, so one outage can hit ~163K domains. The top 10% of
	// responders must serve well over 10% of domains.
	counts := make(map[int]int)
	total := 0
	if err := NewAlexaModel(AlexaConfig{Seed: 5, Domains: 50_000}).Visit(func(d AlexaDomain) error {
		if d.OCSP {
			counts[d.ResponderIndex]++
			total++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	topShare := 0
	for idx, c := range counts {
		if idx < 13 { // top ~10% of 128
			topShare += c
		}
	}
	if frac := float64(topShare) / float64(total); frac < 0.25 {
		t.Errorf("top-10%% responders serve %v of domains, want >0.25 (concentration)", frac)
	}
}

func TestHistorySeries(t *testing.T) {
	h := GenerateHistory(1)
	if len(h) < 26 || len(h) > 30 {
		t.Fatalf("history has %d monthly points", len(h))
	}
	if !h[0].Month.Equal(time.Date(2016, 5, 21, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("start = %v", h[0].Month)
	}
	// Both series grow.
	first, last := h[0], h[len(h)-1]
	if last.PctOCSP <= first.PctOCSP {
		t.Errorf("OCSP adoption should grow: %v → %v", first.PctOCSP, last.PctOCSP)
	}
	if last.PctStapling <= first.PctStapling {
		t.Errorf("stapling should grow: %v → %v", first.PctStapling, last.PctStapling)
	}
	// Cloudflare spike in June 2017.
	before, after := CloudflareJump(h)
	if before != 11_675 || after != 78_907 {
		t.Errorf("Cloudflare jump = %d → %d, want 11675 → 78907", before, after)
	}
	var may17, jun17 HistoryPoint
	for _, p := range h {
		if p.Month.Year() == 2017 && p.Month.Month() == time.May {
			may17 = p
		}
		if p.Month.Year() == 2017 && p.Month.Month() == time.June {
			jun17 = p
		}
	}
	if jun17.PctStapling-may17.PctStapling < 1.5 {
		t.Errorf("June 2017 stapling spike missing: %v → %v", may17.PctStapling, jun17.PctStapling)
	}
}

func TestCDNCache(t *testing.T) {
	t0 := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(t0)
	ca, err := pki.NewRootCA(pki.Config{Name: "CDN CA", OCSPURL: "http://ocsp.cdn.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"cdn.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	n := netsim.New()
	n.RegisterHost("ocsp.cdn.test", "", ocspserver.NewHandler(responder.New("ocsp.cdn.test", ca, db, clk, responder.Profile{Validity: 24 * time.Hour})))

	client := &scanner.Client{Transport: n}
	cdn := NewCDNCache(client, clk, netsim.PaperVantages()[1])
	tgt := scanner.Target{
		ResponderURL: "http://ocsp.cdn.test",
		Responder:    "ocsp.cdn.test",
		Issuer:       ca.Certificate,
		Serial:       leaf.Certificate.SerialNumber,
	}

	// 1000 TLS connections over an hour: one upstream fetch.
	for i := 0; i < 1000; i++ {
		if !cdn.Lookup(context.Background(), tgt) {
			t.Fatal("lookup failed")
		}
		clk.Advance(3 * time.Second)
	}
	st := cdn.Stats()
	if st.Lookups != 1000 {
		t.Errorf("lookups = %d", st.Lookups)
	}
	if st.UpstreamFetches != 1 {
		t.Errorf("upstream fetches = %d, want 1 (cache!)", st.UpstreamFetches)
	}
	if st.HitRate() < 0.99 {
		t.Errorf("hit rate = %v", st.HitRate())
	}
	if st.UpstreamSuccessRate() != 1.0 {
		t.Errorf("upstream success rate = %v, want 1.0", st.UpstreamSuccessRate())
	}
	if st.RespondersContacted != 1 {
		t.Errorf("responders contacted = %d", st.RespondersContacted)
	}

	// After the TTL expires the CDN refetches.
	clk.Advance(13 * time.Hour)
	cdn.Lookup(context.Background(), tgt)
	if got := cdn.Stats().UpstreamFetches; got != 2 {
		t.Errorf("after TTL expiry upstream fetches = %d, want 2", got)
	}
}

func TestCDNCacheUpstreamFailure(t *testing.T) {
	t0 := time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(t0)
	ca, _ := pki.NewRootCA(pki.Config{Name: "CDN Down CA", OCSPURL: "http://ocsp.down.test"})
	leaf, _ := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"down.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	n := netsim.New() // responder never registered → DNS failure
	client := &scanner.Client{Transport: n}
	cdn := NewCDNCache(client, clk, netsim.PaperVantages()[0])
	tgt := scanner.Target{ResponderURL: "http://ocsp.down.test", Responder: "ocsp.down.test", Issuer: ca.Certificate, Serial: leaf.Certificate.SerialNumber}
	if cdn.Lookup(context.Background(), tgt) {
		t.Error("lookup should fail when upstream is unreachable and cache is cold")
	}
	st := cdn.Stats()
	if st.UpstreamSuccessRate() != 0 {
		t.Errorf("success rate = %v", st.UpstreamSuccessRate())
	}
}
