package core

import (
	"context"
	"crypto"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/world"
)

// tinyConfig keeps the experiment runners fast: a small fleet and a short
// campaign window around the Comodo event.
func tinyConfig() world.Config {
	return world.Config{
		Seed:              1,
		Responders:        130,
		CertsPerResponder: 1,
		Start:             time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC),
		End:               time.Date(2018, 4, 27, 0, 0, 0, 0, time.UTC),
		Stride:            time.Hour,
		AlexaDomains:      5_000,
	}
}

// withSmallStudy sizes cfg's consistency study down to every Table 1 and
// time-skew pair plus a few well-behaved ones.
func withSmallStudy(cfg world.Config, consistent int) world.Config {
	cfg.ConsistentCAs = consistent
	cfg.SerialsPerConsistentCA = 10
	cfg.Table1Scale = 100
	return cfg
}

func TestExperimentNames(t *testing.T) {
	names := Experiments()
	if len(names) != 21 {
		t.Fatalf("experiments = %d", len(names))
	}
	var sb strings.Builder
	r := NewRunner(tinyConfig(), &sb)
	if err := r.Run(context.Background(), "definitely-not-an-experiment"); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestRunQuickExperiments(t *testing.T) {
	var sb strings.Builder
	r := NewRunner(tinyConfig(), &sb)
	for _, exp := range []string{"sec4", "fig2", "fig11", "fig12", "table2", "table3", "cdn", "vulnwindow"} {
		if err := r.Run(context.Background(), exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	out := sb.String()
	for _, want := range []string{
		"Section 4", "Figure 2", "Figure 11", "Figure 12",
		"Table 2", "Table 3", "CDN perspective", "window of vulnerability",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestRunCampaignExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign experiments take seconds")
	}
	var sb strings.Builder
	r := NewRunner(withSmallStudy(tinyConfig(), 2), &sb)
	for _, exp := range []string{"fig3", "fig4", "fig5", "fig6", "fig7", "table1", "fig10", "hardfail", "latency"} {
		if err := r.Run(context.Background(), exp); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
	out := sb.String()
	for _, want := range []string{
		"Figure 3", "Figure 4", "Figure 5", "Figure 6", "Table 1", "Figure 10",
		"hard-failed", "lookup latency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
	// The quality block must render exactly once even though fig6 and
	// fig7 were both requested.
	if got := strings.Count(out, "== Figure 6:"); got != 1 {
		t.Errorf("quality block rendered %d times", got)
	}
	// Table 1 exact discrepancies survive into the rendered output.
	if !strings.Contains(out, "ocsp.camerfirma.test") {
		t.Error("camerfirma row missing from Table 1")
	}
}

func TestWorldIsCachedButCampaignsGetFreshWorlds(t *testing.T) {
	r := NewRunner(tinyConfig(), &strings.Builder{})
	a, err := r.World()
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.World()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("World() should cache")
	}
	c, err := r.freshWorld()
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("freshWorld() must not reuse the cached world")
	}
}

// table1ServedDigest is the SHA-256 of every CRL and of one OCSP response
// per pair (servedDigest) for withSmallStudy(Config{Seed: 3}, 3), recorded
// when world.Build still built the study into every world, on the fleet's
// network and clock. Together with testdata/table1_fig10.golden, recorded
// from the same build, it pins the study's move to its own builder.
const table1ServedDigest = "5110a3557dd2efe99ed2868aa85deee8dbf70684cf5ada00e9a0e57b34dc8d2d"

// TestTable1Figure10Golden renders Table 1 and Figure 10 through the runner
// and compares them with the recorded bytes. The rendered counts depend on
// neither the key material nor the clock, so the test also hashes what the
// study's hosts serve from the study's vantage at its instant: CRL and
// OCSP bytes carry the issuer keys (the seeds), thisUpdate and producedAt
// (the clock), and which handler answers which host (the routing).
func TestTable1Figure10Golden(t *testing.T) {
	cfg := withSmallStudy(world.Config{Seed: 3}, 3)
	var sb strings.Builder
	if err := NewRunner(cfg, &sb).Run(context.Background(), "table1"); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(sb.String(), "\n") {
		if !strings.HasPrefix(line, "[") { // the wall-time stats line
			got.WriteString(line)
		}
	}
	// The study's responders still count once the runner has released
	// them: one signed miss per OCSP response.
	if !strings.Contains(sb.String(), "responder cache 0.0% hits (0/436)]") {
		t.Errorf("stats line does not count the study's 436 signed responses:\n%s", sb.String())
	}
	want, err := os.ReadFile("testdata/table1_fig10.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("Table 1 / Figure 10 differ from testdata/table1_fig10.golden; got:\n%s", got.String())
	}

	c, err := world.BuildConsistency(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := servedDigest(t, c); d != table1ServedDigest {
		t.Errorf("served CRL/OCSP bytes digest = %s, want %s", d, table1ServedDigest)
	}
}

// servedDigest hashes, for each source in order, its CRL and its OCSP
// response for serial 1000 (each pair's first revoked serial), fetched the
// way runConsistency's study fetches them: from the second paper vantage,
// six days after the start.
func servedDigest(t *testing.T, c *world.ConsistencyWorld) string {
	t.Helper()
	at := c.Config.Start.Add(6 * 24 * time.Hour)
	v := netsim.PaperVantages()[1]
	h := sha256.New()
	for _, src := range c.Sources {
		req, err := http.NewRequest(http.MethodGet, src.CRLURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Network.Do(v, at, req)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d %d\n", src.CRLURL, res.Status, len(res.Body))
		h.Write(res.Body)

		oreq, err := ocsp.NewRequestForSerial(big.NewInt(1000), src.Issuer, crypto.SHA1)
		if err != nil {
			t.Fatal(err)
		}
		der, err := oreq.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := ocsp.NewHTTPRequest(context.Background(), http.MethodPost, src.OCSPURL, der)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = c.Network.Do(v, at, hreq); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d %d\n", src.OCSPURL, res.Status, len(res.Body))
		h.Write(res.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
