package report

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/browser"
	"github.com/netmeasure/muststaple/internal/census"
	"github.com/netmeasure/muststaple/internal/consistency"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/stats"
	"github.com/netmeasure/muststaple/internal/webserver"
)

var t0 = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)

func obs(vantage string, at time.Time, class scanner.FailureClass) scanner.Observation {
	return scanner.Observation{
		Vantage:   vantage,
		Responder: "ocsp.r.test",
		Domain:    "alexa:r",
		At:        at,
		Class:     class,
	}
}

func TestSection4Rendering(t *testing.T) {
	corpus, err := census.NewCorpus(census.CorpusConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := corpus.Stats()
	if err != nil {
		t.Fatal(err)
	}
	alexa := census.NewAlexaModel(census.AlexaConfig{Seed: 2, Domains: 5000}).Stats()
	var sb strings.Builder
	Section4(&sb, snap, alexa, 200)
	out := sb.String()
	for _, want := range []string{"29709", "Let's Encrypt", "95.", "paper: 100"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRankSeriesRendering(t *testing.T) {
	var sb strings.Builder
	RankSeries(&sb, "Figure X", 10, map[string][]stats.BinRate{
		"HTTPS": {{Start: 0, Rate: 0.75, Total: 100}, {Start: 1000, Rate: 0.70, Total: 100}},
	})
	out := sb.String()
	if !strings.Contains(out, "75.0%") || !strings.Contains(out, "10000") {
		t.Errorf("bad rendering:\n%s", out)
	}
	// Empty series must not panic.
	RankSeries(&sb, "Empty", 1, nil)
}

func TestFigure3Rendering(t *testing.T) {
	avail := scanner.NewAvailabilitySeries(time.Hour)
	for h := 0; h < 4; h++ {
		at := t0.Add(time.Duration(h) * time.Hour)
		avail.Add(obs("Oregon", at, scanner.ClassOK))
		class := scanner.ClassOK
		if h == 2 {
			class = scanner.ClassTCP
		}
		avail.Add(obs("Seoul", at, class))
	}
	var sb strings.Builder
	Figure3(&sb, avail, 1)
	out := sb.String()
	if !strings.Contains(out, "Oregon") || !strings.Contains(out, "Seoul") {
		t.Errorf("vantages missing:\n%s", out)
	}
	if !strings.Contains(out, "Seoul=25.0%") {
		t.Errorf("failure rate missing:\n%s", out)
	}
	// Empty series must not panic.
	Figure3(&sb, scanner.NewAvailabilitySeries(time.Hour), 1)
}

func TestAvailabilitySummaryRendering(t *testing.T) {
	ra := scanner.NewResponderAvailability()
	ra.Add(obs("Oregon", t0, scanner.ClassOK))
	ra.Add(obs("Oregon", t0.Add(time.Hour), scanner.ClassTCP))
	ra.Add(obs("Oregon", t0.Add(2*time.Hour), scanner.ClassOK))
	var sb strings.Builder
	AvailabilitySummary(&sb, ra)
	if !strings.Contains(sb.String(), "transient outage: 1") {
		t.Errorf("outage count missing:\n%s", sb.String())
	}
}

func TestFigure4And5Rendering(t *testing.T) {
	impact := scanner.NewDomainImpact(time.Hour, 100)
	impact.Add(obs("Oregon", t0, scanner.ClassTCP))
	var sb strings.Builder
	Figure4(&sb, impact, []string{"Oregon"}, 1)
	if !strings.Contains(sb.String(), "peak=    100") && !strings.Contains(sb.String(), "peak=") {
		t.Errorf("peak missing:\n%s", sb.String())
	}

	u := scanner.NewUnusableSeries(time.Hour)
	u.Add(obs("Oregon", t0, scanner.ClassOK))
	u.Add(obs("Oregon", t0, scanner.ClassASN1))
	sb.Reset()
	Figure5(&sb, u)
	if !strings.Contains(sb.String(), "ASN.1-unparseable=50.00%") {
		t.Errorf("asn1 rate missing:\n%s", sb.String())
	}
	sb.Reset()
	Figure5(&sb, scanner.NewUnusableSeries(time.Hour)) // empty, no panic
}

func TestCDFReportRendering(t *testing.T) {
	c := &stats.CDF{}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	c.Add(math.Inf(1))
	var sb strings.Builder
	CDFReport(&sb, "Figure T", "s", c, []float64{50})
	out := sb.String()
	if !strings.Contains(out, "+Inf") || !strings.Contains(out, "fraction ≤ 50 s") {
		t.Errorf("bad CDF rendering:\n%s", out)
	}
	sb.Reset()
	CDFReport(&sb, "Empty", "s", &stats.CDF{}, nil)
	if !strings.Contains(sb.String(), "no samples") {
		t.Error("empty CDF should say so")
	}
}

func TestQualityRendering(t *testing.T) {
	q := scanner.NewQualityAggregator()
	good := obs("Oregon", t0, scanner.ClassOK)
	good.NumCerts = 1
	good.NumSerials = 20
	good.HasNextUpdate = true
	good.ThisUpdate = t0.Add(-time.Hour)
	good.NextUpdate = t0.Add(7 * 24 * time.Hour)
	good.ProducedAt = t0
	q.Add(good)
	var sb strings.Builder
	Quality(&sb, q)
	out := sb.String()
	for _, want := range []string{"Figure 6", "Figure 7", "Figure 8", "Figure 9", "on-demand"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestTable1Rendering(t *testing.T) {
	rep := &consistency.Report{
		CRLsFetched:      3,
		SerialsInCRLs:    100,
		UnexpiredSerials: 40,
		TimeDeltas:       &stats.CDF{},
		Rows: []consistency.StatusRow{
			{OCSPURL: "http://ocsp.a.test", CRLURL: "http://crl.a.test", Good: 2, Revoked: 8},
			{OCSPURL: "http://ocsp.b.test", CRLURL: "http://crl.b.test", Revoked: 10},
		},
	}
	rep.TimeDeltas.Add(0)
	rep.ResponsesCollected = 40
	var sb strings.Builder
	Table1(&sb, rep)
	out := sb.String()
	if !strings.Contains(out, "ocsp.a.test") {
		t.Error("discrepant row missing")
	}
	if strings.Contains(out, "ocsp.b.test") {
		t.Error("non-discrepant row must not appear in Table 1")
	}
}

func TestTable2And3Rendering(t *testing.T) {
	rows := []browser.Table2Row{{
		Behavior:       browser.Behavior{Name: "Firefox 60", OS: "Linux", RequestsStaple: true, RespectsMustStaple: true},
		RequestsStaple: true, RespectsMustStaple: true,
	}}
	var sb strings.Builder
	Table2(&sb, rows)
	if !strings.Contains(sb.String(), "Firefox 60 (Linux)") {
		t.Errorf("browser row missing:\n%s", sb.String())
	}

	sb.Reset()
	Table3(&sb, []*webserver.ExperimentResult{
		{Policy: "apache-2.4.18", FirstClientGotStaple: true, FirstClientPaused: true, CachesResponses: true},
		{Policy: "nginx-1.13.12", CachesResponses: true, RespectsNextUpdate: true, RetainsOnError: true},
	})
	out := sb.String()
	if !strings.Contains(out, "paused conn.") || !strings.Contains(out, "no response") {
		t.Errorf("first-client column wrong:\n%s", out)
	}
}

func TestFigure12AndCDNRendering(t *testing.T) {
	var sb strings.Builder
	Figure12(&sb, census.GenerateHistory(1))
	if !strings.Contains(sb.String(), "11675 → 78907") {
		t.Errorf("Cloudflare jump missing:\n%s", sb.String())
	}
	sb.Reset()
	CDNReport(&sb, census.CDNStats{Lookups: 100, Hits: 99, UpstreamFetches: 1, UpstreamSuccesses: 1, RespondersContacted: 1})
	if !strings.Contains(sb.String(), "99.0%") {
		t.Errorf("hit rate missing:\n%s", sb.String())
	}
}
