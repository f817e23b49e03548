package world

import (
	"bytes"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// detConfig is small enough for repeated builds but keeps every named
// population.
func detConfig(seed int64) Config {
	return Config{
		Seed:              seed,
		Responders:        130,
		CertsPerResponder: 2,
		AlexaDomains:      4_000,
	}
}

// detConsistencyConfig sizes a small but complete consistency study: every
// Table 1 and time-skew pair plus three well-behaved ones.
func detConsistencyConfig(seed int64) Config {
	return Config{
		Seed:                   seed,
		ConsistentCAs:          3,
		SerialsPerConsistentCA: 10,
		Table1Scale:            100,
	}
}

// compareWorlds checks two builds for structural and bytewise identity:
// the certificate hierarchies must match DER-for-DER, the target lists
// field-for-field, and the scheduled events window-for-window.
func compareWorlds(t *testing.T, a, b *World) {
	t.Helper()

	if len(a.Responders) != len(b.Responders) {
		t.Fatalf("responder count %d vs %d", len(a.Responders), len(b.Responders))
	}
	for i := range a.Responders {
		ra, rb := a.Responders[i], b.Responders[i]
		if ra.Host != rb.Host || ra.Kind != rb.Kind {
			t.Fatalf("responder %d: (%s,%s) vs (%s,%s)", i, ra.Host, ra.Kind, rb.Host, rb.Kind)
		}
		if !bytes.Equal(ra.CA.Certificate.Raw, rb.CA.Certificate.Raw) {
			t.Fatalf("responder %d (%s): CA certificate DER differs", i, ra.Host)
		}
		if ra.AlexaDomains != rb.AlexaDomains {
			t.Fatalf("responder %d: Alexa weight %d vs %d", i, ra.AlexaDomains, rb.AlexaDomains)
		}
	}

	compareTargets(t, "targets", a.Targets, b.Targets)
	compareTargets(t, "alexa targets", a.AlexaTargets, b.AlexaTargets)

	if len(a.Events) != len(b.Events) {
		t.Fatalf("events %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Name != eb.Name || !ea.Window.From.Equal(eb.Window.From) || !ea.Window.To.Equal(eb.Window.To) {
			t.Fatalf("event %d: %+v vs %+v", i, ea, eb)
		}
	}

	if a.AlexaScale != b.AlexaScale {
		t.Fatalf("alexa scale %d vs %d", a.AlexaScale, b.AlexaScale)
	}
}

// compareConsistency checks two study builds for identity: the same pairs
// in the same order, with the same names, URLs and issuer DER.
func compareConsistency(t *testing.T, a, b *ConsistencyWorld) {
	t.Helper()
	if len(a.Sources) != len(b.Sources) {
		t.Fatalf("consistency sources %d vs %d", len(a.Sources), len(b.Sources))
	}
	for i := range a.Sources {
		sa, sb := a.Sources[i], b.Sources[i]
		if sa.Name != sb.Name || sa.OCSPURL != sb.OCSPURL || sa.CRLURL != sb.CRLURL || sa.Responder != sb.Responder {
			t.Fatalf("consistency source %d: %q vs %q", i, sa.Name, sb.Name)
		}
		if !bytes.Equal(sa.Issuer.Raw, sb.Issuer.Raw) {
			t.Fatalf("consistency source %d (%s): issuer DER differs", i, sa.Name)
		}
	}
}

func compareTargets(t *testing.T, label string, a, b []scanner.Target) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		ta, tb := a[i], b[i]
		if ta.ResponderURL != tb.ResponderURL || ta.Responder != tb.Responder ||
			ta.Serial.Cmp(tb.Serial) != 0 || !ta.Expiry.Equal(tb.Expiry) ||
			ta.Domain != tb.Domain || ta.DomainWeight != tb.DomainWeight {
			t.Fatalf("%s[%d]: %+v vs %+v", label, i, ta, tb)
		}
		if !bytes.Equal(ta.Issuer.Raw, tb.Issuer.Raw) {
			t.Fatalf("%s[%d]: issuer DER differs", label, i)
		}
	}
}

// campaignFingerprint runs a 24-hour hourly campaign over the Hourly target
// set and summarizes the measurements: total lookups plus the per-vantage
// overall failure rates.
func campaignFingerprint(t *testing.T, w *World) (int, map[string]float64) {
	t.Helper()
	avail := scanner.NewAvailabilitySeries(time.Hour)
	start := w.Config.Start
	camp, err := scanner.NewCampaign(&scanner.Client{Transport: w.Network}, w.Clock,
		scanner.WithTargets(w.Targets...),
		scanner.WithWindow(start, start.Add(24*time.Hour)),
		scanner.WithStride(time.Hour),
	)
	if err != nil {
		t.Fatal(err)
	}
	n, err := camp.Run(t.Context(), avail)
	if err != nil {
		t.Fatal(err)
	}
	rates := make(map[string]float64)
	for _, v := range avail.Vantages() {
		rates[v] = avail.OverallFailureRate(v)
	}
	return n, rates
}

// TestBuildRepeatedDeterminism rebuilds the same config twice at the
// default (parallel) worker count and demands bytewise-identical worlds
// and identical 24-hour campaign measurements.
func TestBuildRepeatedDeterminism(t *testing.T) {
	a, err := Build(detConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(detConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	compareWorlds(t, a, b)

	na, ratesA := campaignFingerprint(t, a)
	nb, ratesB := campaignFingerprint(t, b)
	if na != nb {
		t.Fatalf("campaign lookups %d vs %d", na, nb)
	}
	if len(ratesA) != len(ratesB) {
		t.Fatalf("vantage count %d vs %d", len(ratesA), len(ratesB))
	}
	for v, r := range ratesA {
		if ratesB[v] != r {
			t.Fatalf("vantage %s: failure rate %v vs %v", v, r, ratesB[v])
		}
	}
}

// TestBuildSerialParallelEquivalence pins the parallel build to the serial
// reference: BuildWorkers=1 and BuildWorkers=8 must assemble bytewise
// identical worlds from the same config.
func TestBuildSerialParallelEquivalence(t *testing.T) {
	serialCfg := detConfig(11)
	serialCfg.BuildWorkers = 1
	parallelCfg := detConfig(11)
	parallelCfg.BuildWorkers = 8

	serial, err := Build(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Build(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	compareWorlds(t, serial, parallel)

	ns, ratesS := campaignFingerprint(t, serial)
	np, ratesP := campaignFingerprint(t, parallel)
	if ns != np {
		t.Fatalf("campaign lookups: serial %d vs parallel %d", ns, np)
	}
	for v, r := range ratesS {
		if ratesP[v] != r {
			t.Fatalf("vantage %s: serial rate %v vs parallel %v", v, r, ratesP[v])
		}
	}
}

// TestBuildResponderPurity is the per-index contract the parallel fleet
// build rests on: responders 0, n/2 and n−1 built alone through
// buildResponder, on a fresh clock, equal the same indices of a full
// Build at 1, 2 and 5 workers — CA DER, host, kind and profile — for a
// non-default seed, since key material depends only on (seed, index).
func TestBuildResponderPurity(t *testing.T) {
	cfg := detConfig(99).withDefaults()
	n := cfg.Responders
	specs := buildSpecs(n, hashx.ChildRNG(cfg.Seed, streamSpecs, 0), cfg)
	alone := make(map[int]*ResponderInfo)
	for _, i := range []int{0, n / 2, n - 1} {
		info, err := buildResponder(cfg, specs[i], clock.NewSimulated(cfg.Start), i)
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = info
	}
	for _, workers := range []int{1, 2, 5} {
		fullCfg := cfg
		fullCfg.BuildWorkers = workers
		w, err := Build(fullCfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range alone {
			want := w.Responders[i]
			if got.Index != want.Index || got.Host != want.Host || got.Kind != want.Kind {
				t.Fatalf("workers=%d responder %d: (%d,%s,%s) alone vs (%d,%s,%s) built",
					workers, i, got.Index, got.Host, got.Kind, want.Index, want.Host, want.Kind)
			}
			if !bytes.Equal(got.CA.Certificate.Raw, want.CA.Certificate.Raw) {
				t.Fatalf("workers=%d responder %d (%s): CA certificate DER differs from the full build", workers, i, got.Host)
			}
			if got.Profile.Validity != want.Profile.Validity ||
				got.Profile.ThisUpdateOffset != want.Profile.ThisUpdateOffset ||
				got.Profile.BlankNextUpdate != want.Profile.BlankNextUpdate ||
				got.Profile.CacheResponses != want.Profile.CacheResponses ||
				len(got.Profile.SuperfluousCerts) != len(want.Profile.SuperfluousCerts) {
				t.Fatalf("workers=%d responder %d (%s): profile differs from the full build", workers, i, got.Host)
			}
		}
	}
}

// TestBuildConsistencyWorkerEquivalence pins the study's parallel build to
// the serial reference: BuildConsistency at 2 and 5 workers, and a second
// build at 1, assemble the same pairs — names, URLs and issuer DER — as
// the first serial build, for a non-default seed.
func TestBuildConsistencyWorkerEquivalence(t *testing.T) {
	serialCfg := detConsistencyConfig(17)
	serialCfg.BuildWorkers = 1
	serial, err := BuildConsistency(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Sources) != 13 { // 7 Table 1 + 3 time-skew + 3 consistent
		t.Fatalf("consistency sources = %d, want 13", len(serial.Sources))
	}
	for _, workers := range []int{1, 2, 5} {
		cfg := detConsistencyConfig(17)
		cfg.BuildWorkers = workers
		c, err := BuildConsistency(cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareConsistency(t, serial, c)
	}
}
