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

// runEngine runs the fleet campaign with the Hourly aggregators, each
// observation going to extra first.
func runEngine(t *testing.T, hours int, extra []Aggregator, opts ...Option) engineRun {
	t.Helper()
	f := newFleet(t)
	avail := NewAvailabilitySeries(time.Hour)
	u := NewUnusableSeries(time.Hour)
	q := NewQualityAggregator()
	ra := NewResponderAvailability()
	lat := NewLatencyAggregator()
	di := NewDomainImpact(time.Hour, 3)
	camp := f.campaign(t, hours, opts...)
	n, err := camp.Run(context.Background(), append(extra, avail, u, q, ra, lat, di)...)
	if err != nil {
		t.Fatal(err)
	}
	return engineRun{fp: fingerprint(avail, u, q, ra, lat, di), n: n, st: camp.Stats()}
}

// TestCampaignWorkerCountEquivalence: the worker count decides only which
// goroutine runs a lookup. The aggregates, the lookup count and the
// persisted stream must be the same at every worker count, and the
// aggregators must see exactly the persisted stream, in persisted order:
// a campaign is a deterministic measurement, not a race.
func TestCampaignWorkerCountEquivalence(t *testing.T) {
	measure := func(workers int) (engineRun, []string) {
		sink := &memSink{}
		var folded []string
		fold := aggregatorFunc(func(o Observation) { folded = append(folded, o.CanonicalLine()) })
		run := runEngine(t, 24, []Aggregator{fold}, WithWorkers(workers), WithStore(sink))
		persisted := sink.lines()
		sameLines(t, fmt.Sprintf("workers=%d, folded against persisted", workers), persisted, folded)
		return run, persisted
	}
	ref, refLines := measure(1)
	for _, workers := range []int{2, 8} {
		run, lines := measure(workers)
		if run.n != ref.n {
			t.Fatalf("workers=%d: %d lookups vs %d at workers=1", workers, run.n, ref.n)
		}
		if run.fp != ref.fp {
			t.Errorf("workers=%d: aggregates diverge from workers=1\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, ref.fp, workers, run.fp)
		}
		sameLines(t, fmt.Sprintf("workers=%d, persisted against workers=1", workers), refLines, lines)
	}
}

// sameLines fails the test at the first line where got differs from want.
func sameLines(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: line %d differs:\n  want: %s\n  got:  %s", what, i, want[i], got[i])
		}
	}
}

// TestCampaignPipelinedMatchesBarrier: the "pipelined" worker layout must
// reproduce the "barrier" layout's aggregates, lookup count and campaign
// stats exactly (engineVariants describes both layouts).
func TestCampaignPipelinedMatchesBarrier(t *testing.T) {
	variants := engineVariants()
	pipelined := runEngine(t, 24, nil, variants["pipelined"]...)
	barrier := runEngine(t, 24, nil, variants["barrier"]...)
	if pipelined.n != barrier.n {
		t.Fatalf("lookup counts differ: %d pipelined vs %d barrier", pipelined.n, barrier.n)
	}
	if pipelined.fp != barrier.fp {
		t.Errorf("layouts diverge\n--- barrier ---\n%s--- pipelined ---\n%s", barrier.fp, pipelined.fp)
	}
	sameStats(t, "pipelined against barrier", barrier.st, pipelined.st)
}

// sameStats fails the test if got's lookup, round, retry, salvage or
// per-class counts differ from want's.
func sameStats(t *testing.T, what string, want, got Stats) {
	t.Helper()
	if got.Scans != want.Scans || got.Rounds != want.Rounds ||
		got.Retries != want.Retries || got.Salvaged != want.Salvaged {
		t.Errorf("%s: stats %+v diverge from %+v", what, got, want)
	}
	if len(got.ByClass) != len(want.ByClass) {
		t.Errorf("%s: %d failure classes, want %d", what, len(got.ByClass), len(want.ByClass))
	}
	for class, n := range want.ByClass {
		if got.ByClass[class] != n {
			t.Errorf("%s: class %s: %d, want %d", what, class, got.ByClass[class], n)
		}
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
