package scanner

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

// fleet is a multi-responder world for engine tests: eight responders with
// assorted §5 defects and outage schedules, so every aggregator has
// something non-trivial to chew on.
type fleet struct {
	net     *netsim.Network
	clk     *clock.Simulated
	targets []Target
}

func newFleet(t testing.TB) *fleet {
	t.Helper()
	clk := clock.NewSimulated(t0)
	n := netsim.New()
	profiles := []responder.Profile{
		{},
		{CacheResponses: true, Validity: 6 * time.Hour},
		{},
		{BlankNextUpdate: true},
		{NoDefaultMargin: true},
		{Malformed: responder.MalformedZero, MalformedWindows: []responder.Window{
			{From: t0.Add(3 * time.Hour), To: t0.Add(6 * time.Hour)},
		}},
		{},
		{Validity: 12 * time.Hour},
	}
	f := &fleet{net: n, clk: clk}
	for i, prof := range profiles {
		host := fmt.Sprintf("ocsp.r%02d.test", i)
		ca, err := pki.NewRootCA(pki.Config{Name: host + " CA", OCSPURL: "http://" + host})
		if err != nil {
			t.Fatal(err)
		}
		db := responder.NewDB()
		serial := big.NewInt(int64(9000 + i))
		db.AddIssued(serial, t0.AddDate(1, 0, 0))
		n.RegisterHost(host, "", ocspserver.NewHandler(responder.New(host, ca, db, clk, prof)))
		f.targets = append(f.targets, Target{
			ResponderURL: "http://" + host,
			Responder:    host,
			Issuer:       ca.Certificate,
			Serial:       serial,
			Domain:       fmt.Sprintf("www.site%02d.test", i),
			Expiry:       t0.AddDate(1, 0, 0),
		})
	}
	// r02 has a windowed TCP outage from two vantages; r06 is a
	// persistent 404; r00 has a global one-hour DNS blip.
	n.AddRule(&netsim.Rule{
		Host:     "ocsp.r02.test",
		Vantages: []string{"Seoul", "Sydney"},
		Windows:  []netsim.Window{{From: t0.Add(4 * time.Hour), To: t0.Add(9 * time.Hour)}},
		Kind:     netsim.FailTCP,
	})
	n.AddRule(&netsim.Rule{Host: "ocsp.r06.test", Kind: netsim.FailHTTP, HTTPStatus: 404})
	n.AddRule(&netsim.Rule{
		Host:    "ocsp.r00.test",
		Windows: []netsim.Window{{From: t0.Add(10 * time.Hour), To: t0.Add(11 * time.Hour)}},
		Kind:    netsim.FailDNS,
	})
	return f
}

func (f *fleet) campaign(t testing.TB, hours int, opts ...Option) *Campaign {
	t.Helper()
	base := []Option{
		WithTargets(f.targets...),
		WithWindow(t0, t0.Add(time.Duration(hours)*time.Hour)),
		WithStride(time.Hour),
	}
	camp, err := NewCampaign(&Client{Transport: f.net}, f.clk, append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return camp
}

// fingerprint renders every aggregate the Hourly experiment consumes into
// one string, so two campaign runs can be compared byte-for-byte.
func fingerprint(avail *AvailabilitySeries, u *UnusableSeries, q *QualityAggregator, ra *ResponderAvailability, lat *LatencyAggregator, di *DomainImpact) string {
	var b strings.Builder
	for _, v := range avail.Vantages() {
		times, rates := avail.Series(v)
		fmt.Fprintf(&b, "avail %s overall=%v series=%v/%v\n", v, avail.OverallFailureRate(v), times, rates)
	}
	a1, s1, sig1, tot := u.Totals()
	fmt.Fprintf(&b, "unusable %d %d %d %d\n", a1, s1, sig1, tot)
	fmt.Fprintf(&b, "quality n=%d blank=%d zero=%d future=%d\n",
		q.NumResponders(), q.BlankNextUpdateCount(), q.ZeroMarginCount(0.01), q.FutureThisUpdateCount())
	for _, cdf := range []struct {
		name          string
		q25, q50, q95 float64
		n             int
	}{
		{"validity", q.ValidityCDF().Quantile(0.25), q.ValidityCDF().Quantile(0.5), q.ValidityCDF().Quantile(0.95), q.ValidityCDF().N()},
		{"margin", q.MarginCDF().Quantile(0.25), q.MarginCDF().Quantile(0.5), q.MarginCDF().Quantile(0.95), q.MarginCDF().N()},
	} {
		fmt.Fprintf(&b, "cdf %s %v %v %v %d\n", cdf.name, cdf.q25, cdf.q50, cdf.q95, cdf.n)
	}
	for _, od := range q.OnDemand() {
		fmt.Fprintf(&b, "ondemand %+v\n", od)
	}
	fmt.Fprintf(&b, "resp dead=%v persistent=%v outages=%v n=%d\n",
		ra.AlwaysDead(), ra.PersistentlyFailing(), ra.WithOutages(), ra.NumResponders())
	fmt.Fprintf(&b, "latency n=%d p50=%v p99=%v\n",
		lat.Overall().N(), lat.Overall().Quantile(0.5), lat.Overall().Quantile(0.99))
	for _, v := range lat.Vantages() {
		fmt.Fprintf(&b, "latency %s n=%d p50=%v\n", v, lat.Vantage(v).N(), lat.Vantage(v).Quantile(0.5))
	}
	for _, v := range avail.Vantages() {
		times, counts := di.Series(v)
		pt, pc := di.Peak(v)
		fmt.Fprintf(&b, "impact %s %v/%v peak=%v/%d\n", v, times, counts, pt, pc)
	}
	return b.String()
}

type engineRun struct {
	fp string
	n  int
	st Stats
}

func runEngine(t *testing.T, hours int, opts ...Option) engineRun {
	t.Helper()
	f := newFleet(t)
	avail := NewAvailabilitySeries(time.Hour)
	u := NewUnusableSeries(time.Hour)
	q := NewQualityAggregator()
	ra := NewResponderAvailability()
	lat := NewLatencyAggregator()
	di := NewDomainImpact(time.Hour, 3)
	camp := f.campaign(t, hours, opts...)
	n, err := camp.Run(context.Background(), avail, u, q, ra, lat, di)
	if err != nil {
		t.Fatal(err)
	}
	return engineRun{fp: fingerprint(avail, u, q, ra, lat, di), n: n, st: camp.Stats()}
}

// TestCampaignShardingEquivalence: sharded aggregation must be
// byte-identical to sequential aggregation over the same seeded world —
// the core contract of the ShardedAggregator redesign.
func TestCampaignShardingEquivalence(t *testing.T) {
	seq := runEngine(t, 24, WithAggregationShards(1))
	for _, shards := range []int{2, 4, 8} {
		sharded := runEngine(t, 24, WithAggregationShards(shards))
		if sharded.n != seq.n {
			t.Fatalf("shards=%d: %d lookups vs %d sequential", shards, sharded.n, seq.n)
		}
		if sharded.fp != seq.fp {
			t.Errorf("shards=%d: aggregates diverge from sequential run\n--- sequential ---\n%s--- sharded ---\n%s",
				shards, seq.fp, sharded.fp)
		}
	}
}

// TestCampaignPipelinedMatchesBarrier: the pipelined engine must reproduce
// the legacy round-barrier engine's aggregates exactly.
func TestCampaignPipelinedMatchesBarrier(t *testing.T) {
	pipelined := runEngine(t, 24)
	barrier := runEngine(t, 24, WithRoundBarrier())
	if pipelined.n != barrier.n {
		t.Fatalf("lookup counts differ: %d pipelined vs %d barrier", pipelined.n, barrier.n)
	}
	if pipelined.fp != barrier.fp {
		t.Errorf("engines diverge\n--- barrier ---\n%s--- pipelined ---\n%s", barrier.fp, pipelined.fp)
	}
}

// cancelingTransport cancels a context after a fixed number of exchanges,
// simulating an operator interrupt in the middle of a campaign.
type cancelingTransport struct {
	inner  Transport
	after  int64
	n      atomic.Int64
	cancel context.CancelFunc
}

func (ct *cancelingTransport) Do(v netsim.Vantage, at time.Time, req *http.Request) (*netsim.Result, error) {
	if ct.n.Add(1) == ct.after {
		ct.cancel()
	}
	return ct.inner.Do(v, at, req)
}

func TestCampaignCancellationMidRound(t *testing.T) {
	f := newFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ct := &cancelingTransport{inner: f.net, after: 70, cancel: cancel}
	avail := NewAvailabilitySeries(time.Hour)
	camp, err := NewCampaign(&Client{Transport: ct}, f.clk,
		WithTargets(f.targets...),
		WithWindow(t0, t0.Add(24*time.Hour)),
		WithStride(time.Hour),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	n, err := camp.Run(ctx, avail)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	full := 24 * len(f.targets) * len(netsim.PaperVantages())
	if n >= full {
		t.Errorf("canceled campaign completed all %d lookups", n)
	}
	if n == 0 {
		t.Error("campaign aggregated nothing before cancellation")
	}
	if st := camp.Stats(); st.ByClass["canceled"] != 0 {
		t.Errorf("canceled observations leaked into aggregates: %d", st.ByClass["canceled"])
	}
}

func TestCampaignCanceledBeforeStart(t *testing.T) {
	f := newFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	camp := f.campaign(t, 24)
	n, err := camp.Run(ctx, NewAvailabilitySeries(time.Hour))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run error = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Errorf("pre-canceled campaign aggregated %d lookups", n)
	}
}

// TestRunOnceHonorsWorkersAndExpiry covers the RunOnce redesign: it must
// route through the shared engine, so the Workers setting parallelizes the
// round and expired targets are skipped (both were ignored before).
func TestRunOnceHonorsWorkersAndExpiry(t *testing.T) {
	f := newFleet(t)
	f.targets[2].Expiry = t0.Add(30 * time.Minute) // expires before the probe
	camp, err := NewCampaign(&Client{Transport: f.net}, f.clk,
		WithTargets(f.targets...),
		WithWorkers(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	obs, err := camp.RunOnce(context.Background(), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	want := (len(f.targets) - 1) * len(netsim.PaperVantages())
	if len(obs) != want {
		t.Fatalf("RunOnce returned %d observations, want %d (expired target skipped)", len(obs), want)
	}
	for _, o := range obs {
		if o.Responder == "ocsp.r02.test" {
			t.Fatalf("observation for expired target %s", o.Responder)
		}
	}
}

// TestCampaignStatsAndFirstAttemptSemantics: the metrics pipeline must
// count every lookup and round, and retry salvage must NOT improve the
// paper-facing availability aggregates.
func TestCampaignStatsAndFirstAttemptSemantics(t *testing.T) {
	f := newFleet(t)
	avail := NewAvailabilitySeries(time.Hour)
	camp := f.campaign(t, 12,
		// Large backoff so retries against r02's five-hour outage jump
		// past the window and salvage the lookup.
		WithRetryPolicy(RetryPolicy{Attempts: 2, BaseBackoff: 6 * time.Hour, MaxBackoff: 6 * time.Hour}),
	)
	n, err := camp.Run(context.Background(), avail)
	if err != nil {
		t.Fatal(err)
	}
	st := camp.Stats()
	if st.Scans != int64(n) {
		t.Errorf("Stats.Scans = %d, want %d", st.Scans, n)
	}
	if st.Rounds != 12 {
		t.Errorf("Stats.Rounds = %d, want 12", st.Rounds)
	}
	var byClass int64
	for _, c := range st.ByClass {
		byClass += c
	}
	if byClass != st.Scans {
		t.Errorf("ByClass sums to %d, want %d", byClass, st.Scans)
	}
	// r02 fails from Seoul+Sydney for 5 rounds → 10 transient first
	// attempts, all salvaged by the post-outage retry.
	if st.Retries == 0 || st.Salvaged == 0 {
		t.Errorf("Retries = %d Salvaged = %d, want both > 0", st.Retries, st.Salvaged)
	}
	if st.PeakQueueDepth == 0 {
		t.Error("PeakQueueDepth not recorded")
	}
	if st.RoundLatency.Count() != 12 {
		t.Errorf("RoundLatency.Count = %d, want 12", st.RoundLatency.Count())
	}
	// First-attempt semantics: even though every outage lookup was
	// salvaged, Seoul's availability series must still show the failures.
	if rate := avail.OverallFailureRate("Seoul"); rate == 0 {
		t.Error("retry salvage leaked into first-attempt availability figures")
	}
	if !strings.Contains(st.String(), "salvaged") {
		t.Errorf("Stats.String() = %q", st.String())
	}
	if !strings.Contains(camp.Stats().String(), "scans") {
		t.Errorf("Stats.String() = %q", st.String())
	}
}

// TestCampaignRetrySalvageReport: a campaign-level view of the salvage
// counters — every transient outage lookup is retried exactly once and
// salvaged, and nothing else is retried.
func TestCampaignRetrySalvageReport(t *testing.T) {
	w := newWorld(t, responder.Profile{})
	w.net.AddRule(&netsim.Rule{
		Host:    "ocsp.scan.test",
		Windows: []netsim.Window{{From: t0.Add(2 * time.Hour), To: t0.Add(5 * time.Hour)}},
		Kind:    netsim.FailTCP,
	})
	camp := newCampaign(t, w,
		WithTargets(w.target),
		WithWindow(t0, t0.Add(10*time.Hour)),
		WithRetryPolicy(RetryPolicy{Attempts: 2, BaseBackoff: 4 * time.Hour, MaxBackoff: 4 * time.Hour}),
	)
	avail := NewAvailabilitySeries(time.Hour)
	if _, err := camp.Run(context.Background(), avail); err != nil {
		t.Fatal(err)
	}
	st := camp.Stats()
	// 3 outage hours × 6 vantages = 18 transient first attempts.
	if st.Retries != 18 || st.Salvaged != 18 {
		t.Errorf("Retries = %d Salvaged = %d, want 18/18", st.Retries, st.Salvaged)
	}
	if st.ByClass["tcp-failure"] != 18 || st.ByClass["ok"] != st.Scans-18 {
		t.Errorf("ByClass = %v", st.ByClass)
	}
}
