package impact

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// randomTimeline draws a campaign-like observation stream over a few
// (responder, vantage) pairs. Each pair scans at instants at least an hour
// apart, and every observation of one pair at one instant shares one
// outcome (class and validity window), as the certificates of one
// responder do at one scan.
func randomTimeline(rng *rand.Rand) []scanner.Observation {
	classes := []scanner.FailureClass{
		scanner.ClassOK, scanner.ClassOK, scanner.ClassOK, scanner.ClassOK,
		scanner.ClassDNS, scanner.ClassTCP, scanner.ClassHTTPStatus,
		scanner.ClassASN1, scanner.ClassOCSPError, scanner.ClassSignature,
	}
	gaps := []time.Duration{time.Hour, 90 * time.Minute, 2 * time.Hour, 6 * time.Hour, 12 * time.Hour, 24 * time.Hour, 5 * 24 * time.Hour}
	offsets := []time.Duration{-3 * time.Hour, -time.Hour, -time.Minute, 0, 5 * time.Minute, 2 * time.Hour}
	validities := []time.Duration{0, 30 * time.Minute, time.Hour, 4 * time.Hour, 24 * time.Hour, 7 * 24 * time.Hour}

	var out []scanner.Observation
	for p := 0; p < 1+rng.Intn(4); p++ {
		at := t0
		for i := 0; i < 1+rng.Intn(60); i++ {
			at = at.Add(gaps[rng.Intn(len(gaps))])
			o := scanner.Observation{
				Responder: []string{"ocsp.a.test", "ocsp.b.test"}[p%2],
				Vantage:   []string{"Oregon", "Paris"}[p/2],
				At:        at,
				Class:     classes[rng.Intn(len(classes))],
			}
			if o.Class == scanner.ClassOK {
				o.ThisUpdate = at.Add(offsets[rng.Intn(len(offsets))])
				if v := validities[rng.Intn(len(validities))]; v > 0 {
					o.HasNextUpdate, o.NextUpdate = true, o.ThisUpdate.Add(v)
				}
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				out = append(out, o)
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}

// TestReplayMatchesReference replays random timelines through the policy
// replay and the reference models: the no-cache, Apache and correct rows
// accept exactly the handshakes their reference models accepted.
func TestReplayMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for n := 0; n < 2000; n++ {
		h, ref := NewHardFail(), newRefHardFail()
		for _, o := range randomTimeline(rng) {
			h.Add(o)
			ref.Add(o)
		}
		got := [refModels]int{h.ok[0], h.ok[1], h.ok[3]}
		if got != ref.ok || h.total != ref.total {
			t.Fatalf("timeline %d: accepted (no-cache, apache, correct) = %v of %d, reference %v of %d", n, got, h.total, ref.ok, ref.total)
		}
	}
}
