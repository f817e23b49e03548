package world

import (
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// observationLog runs a 36-hour hourly campaign over the Hourly target set
// and returns the full canonical observation log.
func observationLog(t *testing.T, w *World) *scanner.ObservationLog {
	t.Helper()
	log := scanner.NewObservationLog()
	start := w.Config.Start
	camp, err := scanner.NewCampaign(&scanner.Client{Transport: w.Network}, w.Clock,
		scanner.WithTargets(w.Targets...),
		scanner.WithWindow(start, start.Add(36*time.Hour)),
		scanner.WithStride(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := camp.Run(t.Context(), log); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestCachedVsPerScanSignedCampaignEquivalence is the cache-transparency
// pin for the whole pipeline: the same seeded world scanned with the
// responder signed-response cache enabled (default) and with per-scan
// signing (Config.OnDemandSigning) must produce identical observation
// streams — every field of every observation, at every instant, from every
// vantage. Signing is deterministic, the cache only re-serves bytes that
// regeneration would reproduce, so any divergence is a cache bug.
func TestCachedVsPerScanSignedCampaignEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two worlds and runs two campaigns")
	}
	cfg := detConfig(13)
	cached, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Multi-instance farms share a signature only within an instant,
	// which the comparison must cover.
	var farms []*ResponderInfo
	for _, info := range cached.Responders {
		if info.Profile.CacheResponses && info.Profile.Instances > 1 {
			farms = append(farms, info)
		}
	}
	if len(farms) == 0 {
		t.Fatal("the world holds no multi-instance farm")
	}
	signedCfg := detConfig(13)
	signedCfg.OnDemandSigning = true
	signed, err := Build(signedCfg)
	if err != nil {
		t.Fatal(err)
	}

	logCached := observationLog(t, cached)
	logSigned := observationLog(t, signed)
	if logCached.Len() == 0 {
		t.Fatal("campaign produced no observations")
	}
	if diff := logCached.Diff(logSigned); diff != "" {
		t.Fatalf("cached and per-scan-signed campaigns diverge: %s", diff)
	}

	// The cached run must actually have exercised the cache, and the
	// per-scan-signed run must not have.
	if hits, misses := cached.CacheStats(); hits == 0 {
		t.Errorf("cached world recorded no cache hits (misses=%d)", misses)
	}
	var farmHits uint64
	for _, info := range farms {
		hits, _ := info.Responder.CacheStats()
		farmHits += hits
	}
	if farmHits == 0 {
		t.Errorf("none of the cached world's %d farms hit its cache", len(farms))
	}
	if hits, misses := signed.CacheStats(); hits != 0 || misses != 0 {
		t.Errorf("per-scan-signed world recorded cache traffic: hits=%d misses=%d", hits, misses)
	}
}
