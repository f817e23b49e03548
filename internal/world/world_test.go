package world

import (
	"context"
	"crypto/ecdsa"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/consistency"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/scanner"
)

func build(t testing.TB, cfg Config) *World {
	t.Helper()
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildShape(t *testing.T) {
	w := build(t, Config{Seed: 1})
	if len(w.Responders) != 536 {
		t.Fatalf("responders = %d, want 536", len(w.Responders))
	}
	if len(w.Targets) != 536*5 {
		t.Fatalf("targets = %d", len(w.Targets))
	}
	if len(w.AlexaTargets) == 0 || len(w.AlexaTargets) > 128 {
		t.Fatalf("alexa targets = %d", len(w.AlexaTargets))
	}
	// The fleet is all the network holds: the consistency study is
	// built apart (BuildConsistency).
	if got := len(w.Network.Hosts()); got != len(w.Responders) {
		t.Fatalf("network hosts = %d, want one per responder (%d)", got, len(w.Responders))
	}
	if len(w.Events) != 5 {
		t.Errorf("events = %d, want 5", len(w.Events))
	}
	// Named hosts exist.
	hosts := map[string]bool{}
	for _, info := range w.Responders {
		hosts[info.Host] = true
	}
	for _, want := range []string{
		"ocsp.comodoca.test", "ocsp.digicert.test", "ocsp.wayport.test:2560",
		"ocsp.identrustsafeca1.test", "statusa.digitalcertvalidation.test",
		"ocsp0.sheca.test", "ocsp0.postsignum.test", "ocsp.cpc-gov-ae.test",
		"ocsp0.hinet.test", "ocspcnnicroot.cnnic.test",
	} {
		if !hosts[want] {
			t.Errorf("missing named host %s", want)
		}
	}
}

func TestBuildDeterminism(t *testing.T) {
	a := build(t, Config{Seed: 7, Responders: 120, AlexaDomains: 5000})
	b := build(t, Config{Seed: 7, Responders: 120, AlexaDomains: 5000})
	ka := a.Responders[50].CA.Key.Public().(*ecdsa.PublicKey)
	kb := b.Responders[50].CA.Key.Public().(*ecdsa.PublicKey)
	if ka.X.Cmp(kb.X) != 0 {
		t.Error("same seed should reproduce identical CA keys")
	}
	if a.Responders[50].Host != b.Responders[50].Host {
		t.Error("host assignment should be deterministic")
	}
	for i := range a.Responders {
		if a.Responders[i].Kind != b.Responders[i].Kind {
			t.Fatalf("kind assignment differs at %d", i)
		}
	}
}

func TestQualityBudgetAssignment(t *testing.T) {
	w := build(t, Config{Seed: 1})
	var blank, twentySerials, zeroMargin, future, huge, nonOverlap, cached int
	for _, info := range w.Responders {
		p := info.Profile
		if p.BlankNextUpdate {
			blank++
		}
		if p.ExtraSerials == 19 {
			twentySerials++
		}
		if p.NoDefaultMargin && p.ThisUpdateOffset == 0 {
			zeroMargin++
		}
		if p.ThisUpdateOffset < 0 {
			future++
		}
		if p.Validity > 31*24*time.Hour {
			huge++
		}
		if p.CacheResponses && p.UpdateInterval != 0 && p.Validity <= p.UpdateInterval {
			nonOverlap++
		}
		if p.CacheResponses {
			cached++
		}
	}
	if blank != 45 {
		t.Errorf("blank nextUpdate = %d, want 45", blank)
	}
	if twentySerials != 17 {
		t.Errorf("20-serial responders = %d, want 17", twentySerials)
	}
	if zeroMargin != 85 {
		t.Errorf("zero-margin = %d, want 85", zeroMargin)
	}
	if future != 15 {
		t.Errorf("future thisUpdate = %d, want 15", future)
	}
	if huge != 11 {
		t.Errorf(">1 month validity = %d, want 11 (10 + the 1,251-day one)", huge)
	}
	if nonOverlap != 7 {
		t.Errorf("non-overlapping = %d, want 7 (3 hinet + cnnic + 3)", nonOverlap)
	}
	frac := float64(cached) / 536
	if frac < 0.42 || frac > 0.62 {
		t.Errorf("cached fraction = %v, want ≈0.517", frac)
	}
}

// runCampaign runs an hourly campaign over a window with the given
// aggregators.
func runCampaign(t testing.TB, w *World, start, end time.Time, targets []scanner.Target, aggs ...scanner.Aggregator) {
	t.Helper()
	camp, err := scanner.NewCampaign(&scanner.Client{Transport: w.Network}, w.Clock,
		scanner.WithTargets(targets...),
		scanner.WithWindow(start, end),
		scanner.WithStride(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(context.Background(), aggs...); err != nil {
		t.Fatal(err)
	}
}

func TestComodoOutageVisibility(t *testing.T) {
	// The April 25 event: two hours, Oregon/Sydney/Seoul only, the
	// whole 15-responder Comodo group.
	w := build(t, Config{Seed: 2, AlexaDomains: 2000})
	start := time.Date(2018, 4, 25, 18, 0, 0, 0, time.UTC)
	end := start.Add(4 * time.Hour)

	avail := scanner.NewAvailabilitySeries(time.Hour)
	impact := scanner.NewDomainImpact(time.Hour, 1)
	runCampaign(t, w, start, end, w.AlexaTargets, avail, impact)

	// Oregon sees the dip, Virginia does not.
	buckets, oregonRates := avail.Series("Oregon")
	_, virginiaRates := avail.Series("Virginia")
	if len(buckets) != 4 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	// Hour 0 (18:00): pre-outage. Hours 1-2 (19:00, 20:00): outage.
	if oregonRates[1] >= virginiaRates[1] {
		t.Errorf("Oregon rate %v should dip below Virginia %v during the outage", oregonRates[1], virginiaRates[1])
	}
	if oregonRates[0] <= oregonRates[1] {
		t.Errorf("Oregon pre-outage %v should exceed outage-hour %v", oregonRates[0], oregonRates[1])
	}
	if oregonRates[3] <= oregonRates[1] {
		t.Errorf("Oregon should recover: %v vs %v", oregonRates[3], oregonRates[1])
	}

	// Figure 4: the domain impact at the outage hour is large (the
	// paper: 163K of 1M) from affected vantages.
	_, oregonPeak := impact.Peak("Oregon")
	_, virginiaPeak := impact.Peak("Virginia")
	if oregonPeak <= virginiaPeak {
		t.Errorf("Oregon peak impact %d should exceed Virginia %d", oregonPeak, virginiaPeak)
	}
	if frac := float64(oregonPeak) / 1_000_000; frac < 0.05 || frac > 0.5 {
		t.Errorf("Oregon outage impact = %v of 1M domains, want a Comodo-sized dent (~0.16)", frac)
	}
}

func TestPersistentFailuresMeasured(t *testing.T) {
	// Seed choice matters here: the random transient outages must not
	// happen to cover the short classification window below, or a healthy
	// responder masquerades as persistently failing. Seed 5 keeps the
	// window quiet under the PR 2 per-phase seed-derivation scheme.
	w := build(t, Config{Seed: 5, AlexaDomains: 2000})
	// A quiet week (no named events) suffices to classify persistent
	// failures; use one target per responder to keep it fast.
	var targets []scanner.Target
	for i, tgt := range w.Targets {
		if i%w.Config.CertsPerResponder == 0 {
			targets = append(targets, tgt)
		}
	}
	ra := scanner.NewResponderAvailability()
	// April 26: after the Comodo event, before the wayport decline
	// begins (wayport is permanently down from late May, which would
	// make it look always-dead over a late window).
	start := time.Date(2018, 4, 26, 0, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, start.Add(6*time.Hour), targets, ra)

	dead := ra.AlwaysDead()
	if len(dead) != 2 {
		t.Errorf("always-dead = %v, want the 2 IdenTrust analogues", dead)
	}
	persistent := ra.PersistentlyFailing()
	if len(persistent) != 29 {
		t.Errorf("persistently failing = %d, want 29", len(persistent))
	}
}

func TestShecaMalformedEpisode(t *testing.T) {
	w := build(t, Config{Seed: 4, AlexaDomains: 2000})
	var shecaTargets []scanner.Target
	for _, tgt := range w.Targets {
		if tgt.Responder == "ocsp0.sheca.test" {
			shecaTargets = append(shecaTargets, tgt)
		}
	}
	if len(shecaTargets) == 0 {
		t.Fatal("no sheca targets")
	}
	u := scanner.NewUnusableSeries(time.Hour)
	start := time.Date(2018, 4, 29, 8, 0, 0, 0, time.UTC)
	runCampaign(t, w, start, start.Add(12*time.Hour), shecaTargets, u)
	asn1, _, _, total := u.Totals()
	if total == 0 {
		t.Fatal("no HTTP-successful exchanges")
	}
	// 6 of the 12 hours fall inside the 10:00–16:00 "0" window.
	frac := float64(asn1) / float64(total)
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("ASN.1-unusable fraction = %v, want ≈0.5", frac)
	}
}

// TestBuildConsistencyShape pins the default study population and its
// network: 7 Table 1 pairs, 3 time-skew pairs and 24 consistent ones, each
// an OCSP host and a CRL host, and no other host.
func TestBuildConsistencyShape(t *testing.T) {
	c, err := BuildConsistency(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Sources) != 34 {
		t.Fatalf("consistency sources = %d, want 34", len(c.Sources))
	}
	hosts := map[string]bool{}
	for _, h := range c.Network.Hosts() {
		hosts[h] = true
	}
	if len(hosts) != 2*len(c.Sources) {
		t.Fatalf("network hosts = %d, want an OCSP and a CRL host per pair (%d)", len(hosts), 2*len(c.Sources))
	}
	for _, src := range c.Sources {
		if !hosts[src.Responder] || !hosts["crl."+src.Name+".test"] {
			t.Fatalf("%s: hosts not registered", src.Name)
		}
	}
}

func TestWorldConsistencyStudy(t *testing.T) {
	c, err := BuildConsistency(Config{Seed: 5, ConsistentCAs: 6, SerialsPerConsistentCA: 20, Table1Scale: 50})
	if err != nil {
		t.Fatal(err)
	}
	study := &consistency.Study{Network: c.Network, Vantage: netsim.PaperVantages()[1]}
	rep, err := study.Run(c.Config.Start, c.Sources)
	if err != nil {
		t.Fatal(err)
	}

	disc := rep.DiscrepantRows()
	if len(disc) != 7 {
		t.Fatalf("discrepant rows = %d, want 7 (Table 1)", len(disc))
	}
	// Exact Good counts survive scaling.
	goodByURL := map[string]int{}
	unknownByURL := map[string]int{}
	for _, row := range disc {
		goodByURL[row.OCSPURL] = row.Good
		unknownByURL[row.OCSPURL] = row.Unknown
	}
	if goodByURL["http://ocsp.camerfirma.test"] != 7 {
		t.Errorf("camerfirma good = %d, want 7", goodByURL["http://ocsp.camerfirma.test"])
	}
	if goodByURL["http://ocsp.symantec-ss.test"] != 1 {
		t.Errorf("symantec good = %d, want 1", goodByURL["http://ocsp.symantec-ss.test"])
	}
	if unknownByURL["http://ocsp.globalsign-alpha.test"] == 0 {
		t.Error("globalsign analogue should answer Unknown for every serial")
	}
	if unknownByURL["http://ocsp.firmaprofesional.test"] != 11 {
		t.Errorf("firmaprofesional unknown = %d, want 11", unknownByURL["http://ocsp.firmaprofesional.test"])
	}

	// Figure 10: differing and negative revocation times present.
	if rep.DifferingTimes != 40 { // 30 msocsp + 7 early + 3 ancient
		t.Errorf("differing times = %d, want 40", rep.DifferingTimes)
	}
	if rep.NegativeTimes != 7 {
		t.Errorf("negative times = %d, want 7", rep.NegativeTimes)
	}
	// The >4-year tail.
	if got := rep.TimeDeltas.Quantile(1); got < 4*365*24*3600 {
		t.Errorf("max delta = %v s, want >4 years", got)
	}
	// Reason codes: only-in-CRL dominates.
	if rep.ReasonDiffer == 0 || rep.ReasonOnlyInCRL != rep.ReasonDiffer {
		t.Errorf("reason differ/onlyInCRL = %d/%d", rep.ReasonDiffer, rep.ReasonOnlyInCRL)
	}
	// Expiry cross-referencing reduced the population.
	if rep.SerialsInCRLs <= rep.UnexpiredSerials {
		t.Error("expired CRL entries should have been filtered")
	}
}

// TestWorldScaleCorpusAxes pins the WorldScale plumbing: scale 10 means
// 10× the census records (scale factor 1000) and 10× the Alexa domains,
// while the responder fleet stays fixed.
func TestWorldScaleCorpusAxes(t *testing.T) {
	cfg := detConfig(3)
	cfg.WorldScale = 10
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Corpus.ScaleFactor(); got != 1000 {
		t.Fatalf("corpus scale factor = %d, want 1000", got)
	}
	base, err := Build(detConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if w.Corpus.NumRecords() != 10*base.Corpus.NumRecords() {
		t.Fatalf("10× world has %d records, 1× has %d", w.Corpus.NumRecords(), base.Corpus.NumRecords())
	}
	if len(w.Responders) != len(base.Responders) {
		t.Fatalf("fleet grew with WorldScale: %d vs %d", len(w.Responders), len(base.Responders))
	}
	if got, want := cfg.ScaledAlexaDomains(), 40_000; got != want {
		t.Fatalf("ScaledAlexaDomains = %d, want %d", got, want)
	}
	// The cap: AlexaDomains × WorldScale never exceeds the real Top-1M.
	huge := Config{AlexaDomains: 300_000, WorldScale: 100}
	if got := huge.ScaledAlexaDomains(); got != 1_000_000 {
		t.Fatalf("capped ScaledAlexaDomains = %d, want 1000000", got)
	}
}
