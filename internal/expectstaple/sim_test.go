package expectstaple

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/webserver"
)

// simFixture is a self-contained two-site telemetry world: one healthy
// site and one whose responder dies mid-campaign, both reporting to an
// in-process collector.
type simFixture struct {
	clk       *clock.Simulated
	net       *netsim.Network
	sites     []*Site
	collector *Collector
	sink      *memorySink
}

const simTestReportURI = "http://reports.sim.test/expect-staple"

func newSimFixture(t *testing.T, start time.Time) *simFixture {
	t.Helper()
	fx := &simFixture{
		clk:  clock.NewSimulated(start),
		net:  netsim.New(),
		sink: &memorySink{},
	}
	fx.collector = NewCollector(WithSink(fx.sink))
	fx.net.RegisterHost("reports.sim.test", "", fx.collector)

	// The flaky site's responder is unreachable for a 6h window starting
	// 12h in (a netsim-layer outage, like the world's §5.2 events).
	fx.net.AddRule(&netsim.Rule{
		Host:    "ocsp.flakyca.test",
		Kind:    netsim.FailTCP,
		Windows: []netsim.Window{{From: start.Add(12 * time.Hour), To: start.Add(18 * time.Hour)}},
	})

	vantages := netsim.PaperVantages()
	specs := []struct {
		class, host, ocspHost string
		vantage               netsim.Vantage
		profile               responder.Profile
	}{
		{"healthy", "good.sim.test", "ocsp.goodca.test", vantages[0],
			responder.Profile{Validity: 4 * 24 * time.Hour, ThisUpdateOffset: time.Second}},
		{"event-outage", "flaky.sim.test", "ocsp.flakyca.test", vantages[1],
			responder.Profile{Validity: 2 * time.Hour, ThisUpdateOffset: time.Second}},
	}
	for i, spec := range specs {
		ca, err := pki.NewRootCA(pki.Config{Name: "Sim CA " + spec.class, OCSPURL: "http://" + spec.ocspHost})
		if err != nil {
			t.Fatal(err)
		}
		leaf, err := ca.IssueLeaf(pki.LeafOptions{
			DNSNames: []string{spec.host}, NotBefore: start.AddDate(0, -1, 0), MustStaple: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := responder.NewDB()
		db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
		resp := responder.New(spec.ocspHost, ca, db, fx.clk, spec.profile)
		fx.net.RegisterHost(spec.ocspHost, "", ocspserver.NewHandler(resp))

		fetch, err := webserver.NewFetcher(fx.net, spec.vantage, fx.clk, leaf)
		if err != nil {
			t.Fatal(err)
		}
		engine := webserver.NewEngine(leaf, webserver.ApachePolicy(), fetch, fx.clk)
		engine.ExpectStaple = &webserver.ExpectStaple{
			MaxAge:    7 * 24 * time.Hour,
			ReportURI: simTestReportURI,
			Enforce:   i == 1,
		}
		_ = engine.Start()
		fx.sites = append(fx.sites, &Site{
			Host: spec.host, Class: spec.class, Vantage: spec.vantage, Engine: engine, Onset: start,
		})
	}
	return fx
}

func runSimOnce(t *testing.T, workers int) (SimStats, [][]byte, []HostStats) {
	t.Helper()
	start := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	fx := newSimFixture(t, start)
	stats, err := RunSim(fx.clk, fx.net, fx.sites, SimConfig{
		Seed:          42,
		Start:         start,
		End:           start.Add(36 * time.Hour),
		Stride:        time.Hour,
		Clients:       200,
		VisitFraction: 0.1,
		Workers:       workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.collector.Close()
	return stats, fx.sink.payloads, fx.collector.Snapshot()
}

// TestSimDeterministicAcrossWorkers is the subsystem's keystone
// invariant: the emitted report stream — order and bytes — is identical
// no matter how many workers evaluate the handshake grid.
func TestSimDeterministicAcrossWorkers(t *testing.T) {
	baseStats, basePayloads, baseSnap := runSimOnce(t, 1)
	if baseStats.Reports == 0 {
		t.Fatal("fixture produced no reports; the outage site should violate")
	}
	if baseStats.Delivered != baseStats.Reports || baseStats.Failed != 0 {
		t.Fatalf("lossy delivery in-process: %+v", baseStats)
	}
	for _, workers := range []int{2, 7} {
		stats, payloads, snap := runSimOnce(t, workers)
		if stats != baseStats {
			t.Fatalf("workers=%d: stats diverge:\n got %+v\nwant %+v", workers, stats, baseStats)
		}
		if len(payloads) != len(basePayloads) {
			t.Fatalf("workers=%d: %d payloads, want %d", workers, len(payloads), len(basePayloads))
		}
		for i := range payloads {
			if !bytes.Equal(payloads[i], basePayloads[i]) {
				t.Fatalf("workers=%d: payload %d differs", workers, i)
			}
		}
		if !reflect.DeepEqual(snap, baseSnap) {
			t.Fatalf("workers=%d: snapshots diverge", workers)
		}
	}
}

// TestSimReportsMatchExpectations checks the semantic shape of the
// report stream: the healthy site is silent, the outage site's reports
// are missing-staple (Apache drops its cache on failed refresh), carry
// the enforce bit, and fall inside the outage-affected rounds.
func TestSimReportsMatchExpectations(t *testing.T) {
	start := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	_, payloads, snap := runSimOnce(t, 4)
	for _, hs := range snap {
		if hs.Host == "good.sim.test" {
			t.Fatalf("healthy site was reported: %+v", hs)
		}
	}
	if len(snap) != 1 || snap[0].Host != "flaky.sim.test" {
		t.Fatalf("expected reports for flaky.sim.test only, got %+v", snap)
	}
	for _, p := range payloads {
		rep, err := DecodeReport(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Host != "flaky.sim.test" || rep.Violation != ViolationMissing || !rep.Enforce {
			t.Fatalf("unexpected report %+v", rep)
		}
		if rep.At.Before(start.Add(12*time.Hour)) || rep.At.After(start.Add(21*time.Hour)) {
			t.Fatalf("report at %v outside the outage-affected window", rep.At)
		}
	}
}

// TestSimVantageAssignmentStable pins the client→vantage partition to
// the splitmix64 stream so a refactor cannot silently reshuffle the
// fleet (which would change every downstream report).
func TestSimVantageAssignmentStable(t *testing.T) {
	vantages := netsim.PaperVantages()
	if len(vantages) != 6 {
		t.Fatalf("paper vantage count changed: %d", len(vantages))
	}
	counts := make(map[string]int)
	for i := 0; i < 6000; i++ {
		v := vantages[hashx.Mix(42, streamClient, uint64(i))%uint64(len(vantages))]
		counts[v.Name]++
	}
	for name, n := range counts {
		if n < 800 || n > 1200 {
			t.Fatalf("vantage %s has %d of 6000 clients; partition badly skewed", name, n)
		}
	}
	// The stream is keyed: a different seed must repartition.
	same := 0
	for i := 0; i < 1000; i++ {
		if hashx.Mix(42, streamClient, uint64(i))%6 == hashx.Mix(43, streamClient, uint64(i))%6 {
			same++
		}
	}
	if same > 400 {
		t.Fatalf("seed 42 and 43 agree on %d of 1000 clients; stream not keyed by seed", same)
	}
}

func TestSimConfigDefaults(t *testing.T) {
	var cfg SimConfig
	cfg.fill()
	if cfg.Stride != time.Hour || cfg.Clients != 1000 || cfg.VisitFraction != 0.02 || cfg.Workers < 1 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
}
