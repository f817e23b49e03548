// Command ocspload drives an open-loop constant-rate OCSP workload — a
// deterministic GET/POST mix over real sockets — against a responder and
// reports latency quantiles from HDR-style histograms. Latencies are
// measured from each request's scheduled send time (wrk2's discipline),
// so a stalled server shows up in the tail instead of silently pausing
// the load.
//
// With -selfserve it boots its own serving tier (a seeded CA, database,
// and responder behind internal/ocspserver) on a loopback ephemeral port
// and measures that, which is how `make loadcheck` exercises the full
// client-socket-server path with zero setup.
//
// With -capacity it closes the loop instead of running at one fixed rate:
// probe runs double the offered rate until the chosen latency quantile
// breaches -slo, then bisect to the highest sustainable rate. The search
// lives in internal/loadgen.FindCapacity; its progress is mirrored into
// the selfserve tier's /debug/vars.
//
// With -stapleserve it boots a loopback Expect-Staple report collector
// and adds it to the workload as a weighted POST-body target, so the
// telemetry ingestion path can be loaded alone or mixed with OCSP
// serving (-selfserve -stapleserve -staple-weight 1 approximates one
// violation report per N status lookups).
//
// Usage:
//
//	ocspload -selfserve -rate 2000 -duration 5s -get 0.5
//	ocspload -selfserve -capacity -slo 25ms -probe-duration 2s [-check -min-capacity 4000]
//	ocspload -stapleserve -rate 5000 -duration 5s -check
//	ocspload -selfserve -stapleserve -staple-weight 2 -rate 2000 -duration 5s
//	ocspload -url http://localhost:8889 -issuer ca.pem -serial 12345 -rate 500 -duration 10s
//
// -check exits nonzero when the run completed nothing or saw any non-2xx
// status or transport failure (fixed-rate mode), or when the discovered
// capacity is under -min-capacity (-capacity mode).
package main

import (
	"context"
	"crypto"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"fmt"
	"math/big"
	"net"
	"net/http"
	"os"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/expectstaple"
	"github.com/netmeasure/muststaple/internal/loadgen"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

func main() {
	var (
		selfserve = flag.Bool("selfserve", false, "boot a loopback serving tier and load it")
		urlFlag   = flag.String("url", "", "responder URL to load (unless -selfserve)")
		issuerPEM = flag.String("issuer", "", "issuer certificate PEM (with -url)")
		serialStr = flag.String("serial", "", "certificate serial to ask about, decimal (with -url)")
		rate      = flag.Int("rate", 1000, "scheduled request rate per second (open loop)")
		duration  = flag.Duration("duration", 5*time.Second, "scheduling window")
		workers   = flag.Int("workers", 0, "concurrent senders (0: auto)")
		getFrac   = flag.Float64("get", 0.5, "fraction of requests sent as RFC 5019 GETs")
		serials   = flag.Int("serials", 16, "distinct serials in the workload (with -selfserve)")
		seed      = flag.Uint64("seed", 1, "workload mix seed")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-request timeout")
		cached    = flag.Bool("cached", true, "selfserve responder pre-generates per update window")
		validity  = flag.Duration("validity", 24*time.Hour, "selfserve response validity")
		check     = flag.Bool("check", false, "exit nonzero on zero throughput or any non-2xx/transport error")

		stapleserve  = flag.Bool("stapleserve", false, "boot a loopback Expect-Staple report collector and include it in the workload")
		stapleWeight = flag.Int("staple-weight", 1, "relative weight of the report-collector target (with -stapleserve)")

		capacity    = flag.Bool("capacity", false, "closed-loop capacity search instead of a fixed-rate run")
		slo         = flag.Duration("slo", 25*time.Millisecond, "latency SLO at -quantile for -capacity probes")
		quantile    = flag.Float64("quantile", 0.99, "latency quantile compared against -slo")
		probeDur    = flag.Duration("probe-duration", 3*time.Second, "per-probe scheduling window (with -capacity)")
		startRate   = flag.Int("start-rate", 500, "first probed rate in req/s (with -capacity)")
		maxRate     = flag.Int("max-rate", 1<<16, "search ceiling in req/s (with -capacity)")
		minCapacity = flag.Int("min-capacity", 0, "with -capacity -check: fail when the discovered capacity is below this")
	)
	flag.Parse()

	var (
		targets []loadgen.Target
		tier    *selfServeTier
		staples *stapleTier
	)
	switch {
	case *selfserve:
		tier = buildSelfServe(*serials, *cached, *validity)
		defer tier.shutdown()
		targets = tier.targets
		fmt.Fprintf(os.Stderr, "ocspload: selfserve tier at %s (%d serials)\n", tier.srv.URL(), len(targets))
	case *urlFlag != "":
		t, err := buildTarget(*urlFlag, *issuerPEM, *serialStr)
		if err != nil {
			fail("%v", err)
		}
		targets = []loadgen.Target{t}
	case *stapleserve:
		// Report-collector-only workload; no OCSP targets.
	default:
		fail("need -selfserve, -stapleserve, or -url")
	}
	if *stapleserve {
		staples = buildStapleServe()
		defer staples.shutdown()
		targets = append(targets, loadgen.Target{
			URL:         staples.url,
			ReqDER:      staples.body,
			ContentType: expectstaple.ContentTypeReport,
			Weight:      *stapleWeight,
		})
		fmt.Fprintf(os.Stderr, "ocspload: report collector at %s (weight %d)\n", staples.url, *stapleWeight)
	}

	base := loadgen.Config{
		Rate:        *rate,
		Duration:    *duration,
		Workers:     *workers,
		GETFraction: *getFrac,
		Seed:        *seed,
		Timeout:     *timeout,
	}

	if *capacity {
		cfg := loadgen.CapacityConfig{
			Base:          base,
			SLO:           *slo,
			Quantile:      *quantile,
			StartRate:     *startRate,
			MaxRate:       *maxRate,
			ProbeDuration: *probeDur,
			Progress: func(pr loadgen.ProbeResult) {
				verdict := "PASS"
				if !pr.Pass {
					verdict = "FAIL"
				}
				fmt.Fprintf(os.Stderr, "ocspload: probe %6d req/s  p%g %-12v %s\n",
					pr.Rate, 100**quantile, pr.Quantile.Round(time.Microsecond), verdict)
			},
		}
		if tier != nil {
			cfg.Registry = tier.reg
		}
		cap, err := loadgen.FindCapacity(context.Background(), cfg, targets)
		if err != nil {
			fail("capacity: %v", err)
		}
		reportCapacity(cap)
		if tier != nil {
			hits, misses, evictions := tier.handler.FastPathStats()
			fmt.Fprintf(os.Stderr, "ocspload: fast path: %d hits, %d misses, %d evictions\n",
				hits, misses, evictions)
		}
		if *check && cap.MaxRate < *minCapacity {
			fail("check failed: capacity %d req/s below -min-capacity %d", cap.MaxRate, *minCapacity)
		}
		return
	}

	res, err := loadgen.Run(context.Background(), base, targets)
	if err != nil {
		fail("run: %v", err)
	}

	report(res)
	if tier != nil {
		hits, misses, evictions := tier.handler.FastPathStats()
		fmt.Fprintf(os.Stderr, "ocspload: fast path: %d hits, %d misses, %d evictions\n",
			hits, misses, evictions)
	}
	if staples != nil {
		fmt.Fprintf(os.Stderr, "ocspload: collector: %d accepted\n", staples.collector.Accepted())
	}
	if *check {
		if err := checkRun(res); err != nil {
			fail("check failed: %v", err)
		}
	}
	if *check && staples != nil && staples.collector.Accepted() == 0 {
		fail("check failed: collector accepted no reports")
	}
}

// stapleTier is the loopback Expect-Staple report collector the
// -stapleserve mode loads, mirroring selfServeTier for the telemetry
// ingestion path.
type stapleTier struct {
	collector *expectstaple.Collector
	url       string
	body      []byte
	shutdown  func()
}

// buildStapleServe boots a report collector on an ephemeral loopback
// port and pre-encodes one canonical violation report as the POST body.
func buildStapleServe() *stapleTier {
	collector := expectstaple.NewCollector()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fail("stapleserve listen: %v", err)
	}
	srv := &http.Server{Handler: collector}
	go srv.Serve(ln) //lint:allow errcheck-hot returns ErrServerClosed at shutdown
	body := expectstaple.AppendReport(nil, &expectstaple.Report{
		At:        time.Now().UTC(),
		Host:      "load.example.test",
		Vantage:   "loopback",
		Violation: expectstaple.ViolationMissing,
		Enforce:   true,
	})
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //lint:allow errcheck-hot best-effort drain at process exit
		collector.Close()
	}
	return &stapleTier{
		collector: collector,
		url:       "http://" + ln.Addr().String() + "/expect-staple",
		body:      body,
		shutdown:  shutdown,
	}
}

// selfServeTier bundles the loopback serving tier's moving parts so the
// load modes can reach its metrics registry and fast-path counters.
type selfServeTier struct {
	srv      *ocspserver.Server
	handler  *ocspserver.Handler
	reg      *metrics.Registry
	targets  []loadgen.Target
	shutdown func()
}

// buildSelfServe boots the full serving tier on loopback: seeded CA,
// issued serials, a responder core, and an ocspserver on an ephemeral
// port, with its metrics exposed at /debug/vars.
func buildSelfServe(serialCount int, cached bool, validity time.Duration) *selfServeTier {
	ca, err := pki.NewRootCA(pki.Config{
		Name:      "ocspload CA",
		OCSPURL:   "http://ocspload.invalid",
		NotBefore: time.Now().Add(-time.Hour),
	})
	if err != nil {
		fail("selfserve CA: %v", err)
	}
	db := responder.NewDB()
	expiry := time.Now().AddDate(1, 0, 0)
	profile := responder.NewProfile(
		responder.WithValidity(validity),
	)
	if cached {
		profile.Apply(responder.WithCachedResponses(0))
	}
	r := responder.New("ocspload.invalid", ca, db, clock.Real{}, profile)
	reg := metrics.NewRegistry()
	handler := ocspserver.NewHandler(r, ocspserver.WithMetrics(reg))
	debug := ocspserver.NewDebugVars(reg, r)
	srv := ocspserver.NewServer(handler, ocspserver.WithRoute("/debug/vars", debug))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		fail("selfserve listen: %v", err)
	}

	var targets []loadgen.Target
	for i := 0; i < serialCount; i++ {
		serial := big.NewInt(int64(1000 + i))
		db.AddIssued(serial, expiry)
		req, err := ocsp.NewRequestForSerial(serial, ca.Certificate, crypto.SHA1)
		if err != nil {
			fail("selfserve request: %v", err)
		}
		reqDER, err := req.Marshal()
		if err != nil {
			fail("selfserve marshal: %v", err)
		}
		targets = append(targets, loadgen.Target{URL: srv.URL(), ReqDER: reqDER})
	}
	shutdown := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //lint:allow errcheck-hot best-effort drain at process exit
	}
	return &selfServeTier{srv: srv, handler: handler, reg: reg, targets: targets, shutdown: shutdown}
}

// buildTarget builds the single target for an external responder.
func buildTarget(url, issuerPath, serialStr string) (loadgen.Target, error) {
	if issuerPath == "" || serialStr == "" {
		return loadgen.Target{}, fmt.Errorf("-url needs -issuer and -serial")
	}
	data, err := os.ReadFile(issuerPath)
	if err != nil {
		return loadgen.Target{}, err
	}
	block, _ := pem.Decode(data)
	if block == nil {
		return loadgen.Target{}, fmt.Errorf("no PEM block in %s", issuerPath)
	}
	issuer, err := x509.ParseCertificate(block.Bytes)
	if err != nil {
		return loadgen.Target{}, err
	}
	serial, ok := new(big.Int).SetString(serialStr, 10)
	if !ok {
		return loadgen.Target{}, fmt.Errorf("bad -serial %q", serialStr)
	}
	req, err := ocsp.NewRequestForSerial(serial, issuer, crypto.SHA1)
	if err != nil {
		return loadgen.Target{}, err
	}
	reqDER, err := req.Marshal()
	if err != nil {
		return loadgen.Target{}, err
	}
	return loadgen.Target{URL: url, ReqDER: reqDER}, nil
}

func report(res *loadgen.Result) {
	fmt.Printf("scheduled %d  completed %d  throughput %.0f req/s  elapsed %v\n",
		res.Scheduled, res.Completed, res.Throughput(), res.Elapsed.Round(time.Millisecond))
	fmt.Printf("errors: transport %d  http %d (5xx %d)\n",
		res.TransportErrors, res.HTTPErrors, res.Status5xx)
	fmt.Printf("overall %s\n", res.Overall.String())
	if res.GET.Count() > 0 {
		fmt.Printf("GET     %s\n", res.GET.String())
	}
	if res.POST.Count() > 0 {
		fmt.Printf("POST    %s\n", res.POST.String())
	}
}

func reportCapacity(c *loadgen.Capacity) {
	if c.Saturated {
		fmt.Printf("capacity %d req/s (p%g ≤ %v; breaches at %d req/s; %d probes)\n",
			c.MaxRate, 100*c.Quantile, c.SLO, c.FailRate, len(c.Probes))
	} else {
		fmt.Printf("capacity ≥ %d req/s (p%g ≤ %v; search ceiling reached; %d probes)\n",
			c.MaxRate, 100*c.Quantile, c.SLO, len(c.Probes))
	}
	for _, pr := range c.Probes {
		if pr.Rate == c.MaxRate && pr.Pass && pr.Result != nil {
			fmt.Printf("at capacity: %s\n", pr.Result.Overall.String())
			break
		}
	}
}

// checkRun is the fixed-rate -check predicate. A run fails when it
// completed nothing, when any request got a non-2xx status (a 4xx is a
// failed request as much as a 5xx), or when any request failed in
// transport.
func checkRun(res *loadgen.Result) error {
	if res.Completed == 0 || res.HTTPErrors > 0 || res.TransportErrors > 0 {
		return fmt.Errorf("completed=%d http=%d (5xx %d) transport-errors=%d",
			res.Completed, res.HTTPErrors, res.Status5xx, res.TransportErrors)
	}
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocspload: "+format+"\n", args...)
	os.Exit(1)
}
