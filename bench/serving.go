package main

import (
	"bytes"
	"context"
	"crypto"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/expectstaple"
	"github.com/netmeasure/muststaple/internal/loadgen"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/store"
)

// request is one pre-built input of a serving workload.
type request struct {
	method, url, contentType string
	body                     []byte
}

// tier is a serving workload's system under test, listening on loopback.
type tier struct {
	url        string
	reqs       []request
	wantStatus int
	wantType   string // required response Content-Type; "" checks none
	serverSpan string // span name of the server wrapper in a traced run

	// The same inputs in loadgen's form, for the open-loop leg.
	targets  []loadgen.Target
	getFrac  float64
	openRate int

	// fixture builds what the in-process layer calls run on; it is only
	// needed by a traced run, so it stays out of the set-up time.
	fixture func() (fixture, error)
	// layers sets the per-layer metrics the system's own counters give.
	layers func(o *outcome)
	// verify checks the system's outputs after the load; accepted is the
	// number of requests the client saw answered correctly.
	verify func(ctx context.Context, client *http.Client, accepted int64, o *outcome) error
	// close tears the system down; it may be called more than once.
	close func() error
}

// tierBuilders builds each serving workload's system.
var tierBuilders = map[string]func(cfg config, tr *tracer) (*tier, error){
	// 16 serials on a window-cached responder: after warm-up every GET is
	// a fast-path memo hit, isolating net/http, loopback, and ocspserver.
	"get-hot": func(cfg config, tr *tracer) (*tier, error) { return buildOCSPTier(cfg, true, 16, tr) },
	// 4096 serials POSTed to an on-demand signer: every request is
	// decoded, routed, and signed with ECDSA P-256.
	"post-sign": func(cfg config, tr *tracer) (*tier, error) { return buildOCSPTier(cfg, false, 4096, tr) },
	// Binary Expect-Staple reports from 64 hosts into a collector that
	// persists through store.ReportLog: the write path.
	"report-ingest": buildReportTier,
}

const ocspHost = "ocsp.bench.test"

// newCA creates the workload's CA from the seed, so request bytes (whose
// CertIDs hash the issuer) are a function of the seed too.
func newCA(seed uint64, name string) (*pki.CA, error) {
	return pki.NewRootCA(pki.Config{
		Name:      name,
		OCSPURL:   "http://" + ocspHost,
		NotBefore: time.Now().Add(-time.Hour),
		Rand:      rand.New(rand.NewSource(int64(seed))),
	})
}

// listen serves h on a loopback port. An untraced OCSP tier keeps
// ocspserver.Server.Start; everything else is mounted on a server the
// benchmark owns, wrapped in a span recorder when tracing.
func listen(h http.Handler, ocspSrv *ocspserver.Server, tr *tracer, spanName string) (string, func() error, error) {
	shutdown := func(stop func(context.Context) error) error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return stop(ctx)
	}
	if ocspSrv != nil && tr == nil {
		if err := ocspSrv.Start("127.0.0.1:0"); err != nil {
			return "", nil, err
		}
		return ocspSrv.URL(), func() error { return shutdown(ocspSrv.Shutdown) }, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	if ocspSrv != nil {
		// ocspserver.NewServer's settings, so the traced tier differs
		// from the untraced one only by the span wrapper.
		hs.ReadTimeout = 30 * time.Second
		hs.WriteTimeout = 30 * time.Second
		hs.IdleTimeout = 120 * time.Second
		hs.MaxHeaderBytes = 4*ocspserver.DefaultMaxRequestBytes + 8<<10
		hs.Protocols = new(http.Protocols)
		hs.Protocols.SetHTTP1(true)
		hs.Protocols.SetUnencryptedHTTP2(true)
	}
	if tr != nil {
		hs.Handler = tr.wrapServer(spanName, h)
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	stop := func() error {
		err := shutdown(hs.Shutdown)
		<-served
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

func buildOCSPTier(cfg config, cached bool, serials int, tr *tracer) (*tier, error) {
	ca, err := newCA(cfg.seed, "bench OCSP CA")
	if err != nil {
		return nil, err
	}
	db := responder.NewDB()
	profile := responder.NewProfile(responder.WithValidity(24 * time.Hour))
	openRate, getFrac := 5000, 0.0
	if cached {
		profile.Apply(responder.WithCachedResponses(0))
		openRate, getFrac = 12000, 1.0
	}
	r := responder.New(ocspHost, ca, db, clock.Real{}, profile)
	handler := ocspserver.NewHandler(r)
	srv := ocspserver.NewServer(handler)

	expiry := time.Now().AddDate(1, 0, 0)
	nums := make([]*big.Int, serials)
	ders := make([][]byte, serials)
	for k := range nums {
		nums[k] = big.NewInt(int64(1000 + k))
		db.AddIssued(nums[k], expiry)
		req, err := ocsp.NewRequestForSerial(nums[k], ca.Certificate, crypto.SHA1)
		if err != nil {
			return nil, err
		}
		if ders[k], err = req.Marshal(); err != nil {
			return nil, err
		}
	}
	url, stop, err := listen(srv, srv, tr, "ocspserver.serve")
	if err != nil {
		return nil, err
	}
	post := func(der []byte) request {
		return request{method: http.MethodPost, url: url, contentType: ocsp.ContentTypeRequest, body: der}
	}
	t := &tier{
		url:        url,
		wantStatus: http.StatusOK,
		wantType:   ocsp.ContentTypeResponse,
		serverSpan: "ocspserver.serve",
		getFrac:    getFrac,
		openRate:   openRate,
	}
	t.fixture = func() (fixture, error) {
		return fixture{ca: ca, db: db, serial: nums[0], reports: reportBodies(cfg.seed)}, nil
	}
	for _, der := range ders {
		if cached {
			t.reqs = append(t.reqs, request{method: http.MethodGet, url: url + "/" + ocsp.EncodeGETPath(der)})
		} else {
			t.reqs = append(t.reqs, post(der))
		}
		t.targets = append(t.targets, loadgen.Target{URL: url, ReqDER: der})
	}
	t.layers = func(o *outcome) {
		hits, misses, _ := handler.FastPathStats()
		o.set("ocspserver.fastpath_hit_ratio", "ratio", ratio(hits, misses))
		o.set("responder.cache_hit_ratio", "ratio", ratio(r.CacheStats()))
	}
	t.close = sync.OnceValue(stop)
	t.verify = func(ctx context.Context, client *http.Client, _ int64, o *outcome) error {
		// Every serial's response must be a Good answer for that serial,
		// signed by the CA and still fresh; on the cached tier the GET
		// and POST paths must serve the same bytes.
		for k, serial := range nums {
			body, err := t.fetch(ctx, client, t.reqs[k])
			o.check(err == nil, "serial %v: %v", serial, err)
			if err != nil {
				continue
			}
			err = checkOCSPResponse(body, ca, serial, time.Now())
			o.check(err == nil, "serial %v: %v", serial, err)
			if cached {
				viaPOST, err := t.fetch(ctx, client, post(ders[k]))
				o.check(err == nil && bytes.Equal(body, viaPOST), "serial %v: POST body differs from GET body (err %v)", serial, err)
			}
		}
		return nil
	}
	return t, nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// checkOCSPResponse verifies that der is a successful response, signed
// by ca, saying Good for serial and still valid at now.
func checkOCSPResponse(der []byte, ca *pki.CA, serial *big.Int, now time.Time) error {
	resp, err := ocsp.ParseResponse(der)
	if err != nil {
		return err
	}
	if resp.Status != ocsp.StatusSuccessful {
		return fmt.Errorf("response status %v", resp.Status)
	}
	if err := resp.CheckSignatureFrom(ca.Certificate); err != nil {
		return err
	}
	id, err := ocsp.NewCertIDForSerial(serial, ca.Certificate, crypto.SHA1)
	if err != nil {
		return err
	}
	single := resp.Find(id)
	switch {
	case single == nil:
		return fmt.Errorf("response does not cover the serial")
	case single.CertID.Serial.Cmp(serial) != 0:
		return fmt.Errorf("response answers serial %v", single.CertID.Serial)
	case single.Status != ocsp.Good:
		return fmt.Errorf("status %v, want good", single.Status)
	case !now.Before(single.NextUpdate):
		return fmt.Errorf("response expired at %v", single.NextUpdate)
	}
	return nil
}

// reportBodies encodes the report-ingest inputs: 256 reports from 64
// seeded hosts spread over every violation class.
func reportBodies(seed uint64) [][]byte {
	const hosts, reports = 64, 256
	names := make([]string, hosts)
	for h := range names {
		names[h] = fmt.Sprintf("h%016x.report.test", splitmix64(seed^(uint64(h)<<48|0xbeef)))
	}
	vantages := netsim.PaperVantages()
	base := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	bodies := make([][]byte, reports)
	for j := range bodies {
		x := splitmix64(seed ^ (uint64(j)<<32 | 0xfeed))
		at := base.Add(time.Duration(x%(30*24*3600)) * time.Second)
		rep := expectstaple.Report{
			At:        at,
			Host:      names[j%hosts],
			Vantage:   vantages[(x>>20)%uint64(len(vantages))].Name,
			Client:    x >> 32,
			Violation: expectstaple.Violation((x >> 8) % uint64(expectstaple.NumViolations)),
			Enforce:   x&1 == 1,
		}
		if rep.Violation != expectstaple.ViolationMissing {
			rep.ThisUpdate = at.Add(-48 * time.Hour)
			rep.NextUpdate = at.Add(-24 * time.Hour)
		}
		bodies[j] = expectstaple.AppendReport(nil, &rep)
	}
	return bodies
}

// timedSink times each ReportLog append when the tracer is active.
type timedSink struct {
	inner expectstaple.Sink
	t     *tracer
}

func (s *timedSink) Append(payload []byte) error {
	if !s.t.active.Load() {
		return s.inner.Append(payload)
	}
	start := time.Now()
	err := s.inner.Append(payload)
	s.t.root("store.reportlog_append", start, time.Now())
	return err
}

func buildReportTier(cfg config, tr *tracer) (*tier, error) {
	dir, err := os.MkdirTemp(cfg.workDir, "reportlog-")
	if err != nil {
		return nil, err
	}
	log, err := store.CreateReportLog(dir)
	if err != nil {
		return nil, err
	}
	var sink expectstaple.Sink = log
	if tr != nil {
		sink = &timedSink{inner: log, t: tr}
	}
	reg := metrics.NewRegistry()
	collector := expectstaple.NewCollector(expectstaple.WithSink(sink), expectstaple.WithCollectorMetrics(reg))
	url, stop, err := listen(collector, nil, tr, "expectstaple.serve")
	if err != nil {
		collector.Close()
		return nil, err
	}
	url += "/expect-staple"
	bodies := reportBodies(cfg.seed)
	t := &tier{
		url:        url,
		wantStatus: http.StatusAccepted,
		serverSpan: "expectstaple.serve",
		openRate:   12000,
	}
	t.fixture = func() (fixture, error) {
		// The in-process OCSP calls need a CA; this workload has none of
		// its own, so it gets one from the same seed.
		ca, err := newCA(cfg.seed, "bench probe CA")
		if err != nil {
			return fixture{}, err
		}
		serial := big.NewInt(1000)
		db := responder.NewDB()
		db.AddIssued(serial, time.Now().AddDate(1, 0, 0))
		return fixture{ca: ca, db: db, serial: serial, reports: bodies}, nil
	}
	for _, b := range bodies {
		t.reqs = append(t.reqs, request{method: http.MethodPost, url: url, contentType: expectstaple.ContentTypeReport, body: b})
		t.targets = append(t.targets, loadgen.Target{URL: url, ReqDER: b, ContentType: expectstaple.ContentTypeReport})
	}
	t.layers = func(o *outcome) {
		o.set("expectstaple.dropped", "count", float64(collector.Dropped()))
	}
	// Verification needs the server stopped and the collector and log
	// closed, but the log's directory kept until it has been re-scanned.
	shutdown := sync.OnceValue(func() error {
		err := stop()
		collector.Close()
		return errors.Join(err, log.Close())
	})
	t.close = func() error {
		err := shutdown()
		return errors.Join(err, os.RemoveAll(dir))
	}
	t.verify = func(_ context.Context, _ *http.Client, accepted int64, o *outcome) error {
		if err := shutdown(); err != nil {
			return err
		}
		// Every report the client saw accepted was aggregated and
		// persisted exactly once, and every persisted record decodes.
		scanned, undecodable := int64(0), 0
		if err := store.ScanReportLog(dir, func(p []byte) error {
			scanned++
			if _, err := expectstaple.DecodeReport(p); err != nil {
				undecodable++
			}
			return nil
		}); err != nil {
			return err
		}
		var aggregated uint64
		for _, hs := range collector.Snapshot() {
			aggregated += hs.Total
		}
		acc := collector.Accepted()
		o.check(acc == accepted, "collector accepted %d reports, the client saw %d accepted", acc, accepted)
		o.check(log.Records() == acc && scanned == acc && aggregated == uint64(acc),
			"accepted %d, log records %d, re-scanned %d, aggregated %d", acc, log.Records(), scanned, aggregated)
		o.check(undecodable == 0, "%d persisted reports do not decode", undecodable)
		o.check(collector.Dropped() == 0, "collector shed %d reports", collector.Dropped())
		sinkErrs := reg.Counter("expectstaple.sink.errors").Value()
		o.check(sinkErrs == 0, "%d report-log appends failed", sinkErrs)
		return nil
	}
	return t, nil
}

// exchange sends rq, copies the response body to body, and checks the
// status and content type. It returns when the request was handed to
// the client and when the body was drained. A non-empty trace is sent in
// the trace header.
func (t *tier) exchange(ctx context.Context, client *http.Client, rq *request, trace string, body io.Writer) (sent, done time.Time, err error) {
	var payload io.Reader
	if rq.body != nil {
		payload = bytes.NewReader(rq.body)
	}
	req, err := http.NewRequestWithContext(ctx, rq.method, rq.url, payload)
	if err != nil {
		return sent, done, err
	}
	if rq.contentType != "" {
		req.Header.Set("Content-Type", rq.contentType)
	}
	if trace != "" {
		req.Header.Set(traceHeader, trace)
	}
	sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return sent, done, err
	}
	_, err = io.Copy(body, resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	done = time.Now()
	switch {
	case err != nil:
	case resp.StatusCode != t.wantStatus:
		err = fmt.Errorf("status %d, want %d", resp.StatusCode, t.wantStatus)
	case t.wantType != "" && resp.Header.Get("Content-Type") != t.wantType:
		err = fmt.Errorf("content type %q, want %q", resp.Header.Get("Content-Type"), t.wantType)
	}
	return sent, done, err
}

// fetch sends one request and returns the checked response body.
func (t *tier) fetch(ctx context.Context, client *http.Client, rq request) ([]byte, error) {
	var b bytes.Buffer
	_, _, err := t.exchange(ctx, client, &rq, "", &b)
	return b.Bytes(), err
}

// newClient returns the load client: keep-alive HTTP/1.1 over at most
// two connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 2,
			MaxConnsPerHost:     2,
			DisableCompression:  true,
		},
	}
}

// loader drives closed-loop and open-loop load against a tier.
type loader struct {
	client *http.Client
	t      *tier
	seed   uint64
	next   atomic.Uint64 // index of the next input pick
	ok     atomic.Int64  // requests answered correctly so far
}

// window is one closed-loop leg's outcome.
type window struct {
	ops, fails int64
	firstErr   error
	elapsed    time.Duration
	lat        []time.Duration // send to drained body, per request
}

func (w *window) rate() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// run keeps conns requests in flight for d: each connection sends its
// next request as soon as the previous one is answered. With tr set,
// every request is traced.
func (ld *loader) run(ctx context.Context, conns int, d time.Duration, tr *tracer) *window {
	slots := make([]window, conns)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range slots {
		wg.Add(1)
		go func(s *window) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lat, err := ld.do(ctx, tr)
				if err != nil {
					s.fails++
					if s.firstErr == nil {
						s.firstErr = err
					}
					continue
				}
				s.ops++
				s.lat = append(s.lat, lat)
			}
		}(&slots[c])
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	for i := range slots {
		w.ops += slots[i].ops
		w.fails += slots[i].fails
		if w.firstErr == nil {
			w.firstErr = slots[i].firstErr
		}
		w.lat = append(w.lat, slots[i].lat...)
	}
	return w
}

// do sends the next input and checks the response.
func (ld *loader) do(ctx context.Context, tr *tracer) (time.Duration, error) {
	i := ld.next.Add(1) - 1
	rq := &ld.t.reqs[splitmix64(ld.seed^i)%uint64(len(ld.t.reqs))]
	var trace uint64
	var traceStr string
	if tr != nil {
		trace = tr.newTrace()
		traceStr = strconv.FormatUint(trace, 10)
	}
	sent, done, err := ld.t.exchange(ctx, ld.client, rq, traceStr, io.Discard)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		tr.client(trace, sent, done)
	}
	ld.ok.Add(1)
	return done.Sub(sent), nil
}

// count adds a leg's operations to the outcome.
func count(o *outcome, w *window) {
	o.attempted += w.ops + w.fails
	o.failN(w.fails, "%d requests failed, first: %v", w.fails, w.firstErr)
}

// startClock is a clock.Clock that remembers its first reading: loadgen
// reads the clock first to fix the start of its send schedule.
type startClock struct {
	once  sync.Once
	start time.Time
}

func (c *startClock) Now() time.Time {
	now := time.Now()
	c.once.Do(func() { c.start = now })
	return now
}

func (c *startClock) startTime() time.Time {
	c.once.Do(func() { c.start = time.Now() })
	return c.start
}

// lagTransport records how late the generator sends: the k-th request
// sent against the k-th slot of loadgen's schedule.
type lagTransport struct {
	inner    http.RoundTripper
	clk      *startClock
	interval time.Duration
	sent     atomic.Int64

	mu  sync.Mutex
	lag loadgen.Hist
}

func (l *lagTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	k := l.sent.Add(1) - 1
	due := l.clk.startTime().Add(time.Duration(k) * l.interval)
	late := time.Since(due)
	l.mu.Lock()
	l.lag.RecordDuration(late)
	l.mu.Unlock()
	return l.inner.RoundTrip(req)
}

// openLoop runs loadgen's open-loop generator at the tier's fixed rate
// with two workers over the client's connections, and sets the loadgen.*
// metrics: latency from each request's scheduled send, and send lag.
func (ld *loader) openLoop(ctx context.Context, d time.Duration, o *outcome) error {
	clk := &startClock{}
	lag := &lagTransport{
		inner:    ld.client.Transport,
		clk:      clk,
		interval: time.Duration(int64(time.Second) / int64(ld.t.openRate)),
	}
	res, err := loadgen.Run(ctx, loadgen.Config{
		Rate:        ld.t.openRate,
		Duration:    d,
		Workers:     2,
		GETFraction: ld.t.getFrac,
		Seed:        ld.seed,
		Clock:       clk,
		Client:      &http.Client{Timeout: ld.client.Timeout, Transport: lag},
	}, ld.t.targets)
	if err != nil {
		return err
	}
	ld.ok.Add(int64(res.Completed))
	o.attempted += int64(res.Scheduled)
	missed := int64(res.Scheduled - res.Completed)
	o.failN(missed, "open loop: %d of %d requests failed (transport %d, http %d)",
		missed, res.Scheduled, res.TransportErrors, res.HTTPErrors)
	o.set("loadgen.sched_p50_us", "us", quantileUs(&res.Overall, 0.5))
	o.set("loadgen.sched_p99_us", "us", quantileUs(&res.Overall, 0.99))
	o.set("loadgen.send_lag_p50_us", "us", quantileUs(&lag.lag, 0.5))
	o.set("loadgen.send_lag_p99_us", "us", quantileUs(&lag.lag, 0.99))
	return nil
}

// runServing runs one serving workload, untraced or traced.
func runServing(ctx context.Context, name string, cfg config) (_ *outcome, err error) {
	o := newOutcome()
	var tr *tracer
	var ref *refServer
	if cfg.trace {
		tr = newTracer()
		zeroLayerMetrics(o)
	} else {
		if ref, err = startRefServer(); err != nil {
			return nil, err
		}
		defer func() { err = errors.Join(err, ref.close()) }()
	}

	// Set-up is the time from nothing to a tier listening and ready to
	// serve. An untraced run sets the tier up setupRuns times, tearing
	// each down before the next, and serves from the last; setup_s is the
	// median, each set-up at reference speed.
	var setups []float64
	var t *tier
	for i := 0; i < setupRuns && (i == 0 || !cfg.trace); i++ {
		if t != nil {
			if err = t.close(); err != nil {
				return nil, err
			}
		}
		secs, err := timeSetUp(ref, func() (err error) {
			t, err = tierBuilders[name](cfg, tr)
			return err
		})
		if err != nil {
			return nil, err
		}
		setups = append(setups, secs)
	}
	defer t.close()
	client := newClient()
	defer client.CloseIdleConnections()
	ld := &loader{client: client, t: t, seed: cfg.seed}

	count(o, ld.run(ctx, 2, cfg.warmup, nil))
	if cfg.trace {
		if err = tracedLegs(ctx, name, cfg, ld, tr, o); err != nil {
			return nil, err
		}
	} else {
		var samples int
		if samples, err = untracedLegs(ctx, cfg, ld, o, ref); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %d set-ups; latency from %d round trips; %v\n", name, len(setups), samples, ref)
		o.set("setup_s", "s", median(setups))
	}
	if err = t.verify(ctx, client, ld.ok.Load(), o); err != nil {
		return nil, err
	}
	return o, t.close()
}

// windows returns how many closed-loop windows fit the measured span.
func windows(cfg config, span time.Duration) int {
	n := int(span / cfg.window)
	if n < 3 {
		n = 3
	}
	return n
}

// untracedLegs measures the end-to-end metrics. The measured span is cut
// into short closed-loop windows, alternately at two connections
// (throughput) and at one connection (latency), so that the host's drift
// reaches every metric alike. The calibration kernel runs between windows,
// and each window is brought to reference speed by the mean of the two
// samples around it. It returns how many round trips the latency metrics
// rest on.
func untracedLegs(ctx context.Context, cfg config, ld *loader, o *outcome, ref *refServer) (int, error) {
	var rates []float64
	var lats []roundTrips
	before, err := ref.sample()
	if err != nil {
		return 0, err
	}
	for w := 0; w < windows(cfg, cfg.measure); w++ {
		conns := 2 - w%2
		win := ld.run(ctx, conns, cfg.window, nil)
		count(o, win)
		after, err := ref.sample()
		if err != nil {
			return 0, err
		}
		slow := slowdownOf((before + after) / 2)
		before = after
		if conns == 2 {
			rates = append(rates, win.rate()*slow)
		} else {
			lats = append(lats, newRoundTrips(win.lat).atReference(slow))
		}
	}
	samples := reportLoad(o, rates, lats)
	o.set("heap_live_mib", "MiB", liveHeapMiB())
	return samples, nil
}

// tracedLegs measures the per-layer metrics: first the tracing overhead
// (untraced and traced windows alternating at two connections), then the
// layer quantiles at one connection, then the open-loop leg, then the
// in-process layer calls.
func tracedLegs(ctx context.Context, name string, cfg config, ld *loader, tr *tracer, o *outcome) error {
	var plain, traced []float64
	var use usageDelta
	for w := 0; w < windows(cfg, cfg.measure/2); w++ {
		if w%2 == 1 {
			tr.active.Store(true)
			win := ld.run(ctx, 2, cfg.window, tr)
			tr.active.Store(false)
			count(o, win)
			traced = append(traced, win.rate())
			continue
		}
		before := readUsage()
		win := ld.run(ctx, 2, cfg.window, nil)
		use.add(before, readUsage(), win.ops)
		count(o, win)
		plain = append(plain, win.rate())
	}
	use.report(o)
	o.set("trace.overhead_frac", "ratio", 1-median(traced)/median(plain))

	tr.reset()
	tr.active.Store(true)
	count(o, ld.run(ctx, 1, cfg.measure/4, tr))
	tr.active.Store(false)
	hists, spans, negSelf := tr.snapshot()
	o.check(negSelf == 0, "%d requests have a server span longer than their round trip", negSelf)
	o.check(spansNest(spans), "a sampled server span lies outside its client span")

	if err := ld.openLoop(ctx, cfg.measure/4, o); err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	f, err := ld.t.fixture()
	if err != nil {
		return err
	}
	if err := runProbes(ctx, f, cfg.probeIters, o); err != nil {
		return fmt.Errorf("in-process calls: %w", err)
	}
	ld.t.layers(o)

	rtt, self, srv := hists["http.rtt"], hists["http.self"], hists[ld.t.serverSpan]
	o.set("http.rtt_p50_us", "us", quantileUs(rtt, 0.5))
	o.set("http.rtt_p99_us", "us", quantileUs(rtt, 0.99))
	o.set("http.self_p50_us", "us", quantileUs(self, 0.5))
	prefix := "ocspserver"
	if ld.t.serverSpan == "expectstaple.serve" {
		prefix = "expectstaple"
	}
	o.set(prefix+".serve_p50_us", "us", quantileUs(srv, 0.5))
	o.set(prefix+".serve_p99_us", "us", quantileUs(srv, 0.99))

	rows := []layerRow{histRow("net/http client+server, loopback", self, rtt)}
	if appendHist := hists["store.reportlog_append"]; appendHist != nil {
		o.set("store.reportlog_append_p50_ns", "ns", float64(appendHist.Quantile(0.5)))
		o.set("store.reportlog_append_p99_ns", "ns", float64(appendHist.Quantile(0.99)))
		// The append runs inside the collector's span but cannot be
		// paired with its request from outside, so the collector's own
		// time is the difference of the two distributions' quantiles.
		own := histRow(ld.t.serverSpan+" (excl. append)", srv, rtt)
		own.selfP50 = max(0, own.selfP50-time.Duration(appendHist.Quantile(0.5)))
		own.selfP99 = max(0, own.selfP99-time.Duration(appendHist.Quantile(0.99)))
		own.share = float64(own.selfP50) / float64(rtt.Quantile(0.5))
		rows = append(rows, own, histRow("store.reportlog_append", appendHist, rtt))
	} else {
		rows = append(rows, histRow(ld.t.serverSpan, srv, rtt))
	}
	printLayerTable(os.Stderr, name, fmt.Sprintf("http.rtt_p50_us = %.2f", quantileUs(rtt, 0.5)), rows)
	return writeSpans(cfg.traceDir, name, spans)
}

// histRow is a layer-table row whose self time is h's distribution and
// whose share is its p50 over the reference round trip's p50.
func histRow(layer string, h, rtt *loadgen.Hist) layerRow {
	if h == nil || rtt == nil || rtt.Count() == 0 {
		return layerRow{layer: layer}
	}
	return layerRow{
		layer:   layer,
		count:   h.Count(),
		selfP50: time.Duration(h.Quantile(0.5)),
		selfP99: time.Duration(h.Quantile(0.99)),
		share:   float64(h.Quantile(0.5)) / float64(rtt.Quantile(0.5)),
	}
}

// spansNest reports whether every sampled server span lies within the
// client span of the same trace.
func spansNest(spans []span) bool {
	clients := make(map[uint64]span)
	for _, s := range spans {
		if s.Span == rootSpan {
			clients[s.Trace] = s
		}
	}
	for _, s := range spans {
		if s.Span != serverSpan {
			continue
		}
		c, ok := clients[s.Trace]
		if !ok || s.Start < c.Start || s.End > c.End {
			return false
		}
	}
	return true
}
