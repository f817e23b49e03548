package main

import (
	"context"
	"crypto"
	"fmt"
	"math/big"
	"net/http"
	"net/url"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/expectstaple"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

// layerMetrics are the per-layer metrics a traced run reports, with
// their units. Every traced run reports all of them; a layer that is not
// on the workload's path reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"http.rtt_p50_us", "us"},
	{"http.rtt_p99_us", "us"},
	{"http.self_p50_us", "us"},
	{"ocspserver.serve_p50_us", "us"},
	{"ocspserver.serve_p99_us", "us"},
	{"ocspserver.fastpath_hit_ratio", "ratio"},
	{"ocspserver.inproc_get_hit_ns", "ns"},
	{"responder.respond_miss_us", "us"},
	{"responder.cache_hit_ratio", "ratio"},
	{"ocsp.create_response_us", "us"},
	{"expectstaple.serve_p50_us", "us"},
	{"expectstaple.serve_p99_us", "us"},
	{"expectstaple.decode_ns", "ns"},
	{"expectstaple.dropped", "count"},
	{"store.reportlog_append_p50_ns", "ns"},
	{"store.reportlog_append_p99_ns", "ns"},
	{"netsim.do_p50_us", "us"},
	{"netsim.do_p99_us", "us"},
	{"scanner.aggregate_ns_per_obs", "ns"},
	{"scanner.round_p50_ms", "ms"},
	{"scanner.queue_depth_peak", "count"},
	{"store.append_round_p50_ms", "ms"},
	{"store.append_round_p99_ms", "ms"},
	{"store.fold_records_per_s", "1/s"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"loadgen.sched_p50_us", "us"},
	{"loadgen.sched_p99_us", "us"},
	{"loadgen.send_lag_p50_us", "us"},
	{"loadgen.send_lag_p99_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// zeroLayerMetrics sets every per-layer metric to 0, so the ones the
// workload's path does not reach are still reported.
func zeroLayerMetrics(o *outcome) {
	for _, m := range layerMetrics {
		o.set(m.name, m.unit, 0)
	}
}

// fixture is what a workload's in-process layer calls run on: its CA,
// revocation database and one issued serial, and report bodies.
type fixture struct {
	ca      *pki.CA
	db      *responder.DB
	serial  *big.Int
	reports [][]byte
}

// nullWriter is a ResponseWriter that discards the response, so a
// ServeHTTP call measures the handler alone.
type nullWriter struct{ hdr http.Header }

func (w *nullWriter) Header() http.Header         { return w.hdr }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// perCall times n calls of fn and returns the mean nanoseconds per call.
func perCall(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), nil
}

// runProbes times the in-process layer calls on f and sets their
// metrics: a memo-hit GET through ocspserver's ServeHTTP, Respond on a
// request the responder must sign, ocsp.CreateResponse, and
// expectstaple.DecodeReport. iters sizes the cheap calls; the signing
// calls run iters/40 times.
func runProbes(ctx context.Context, f fixture, iters int, o *outcome) error {
	signIters := max(iters/40, 1)
	req, err := ocsp.NewRequestForSerial(f.serial, f.ca.Certificate, crypto.SHA1)
	if err != nil {
		return err
	}
	reqDER, err := req.Marshal()
	if err != nil {
		return err
	}

	cached := responder.New("probe.bench.test", f.ca, f.db, clock.Real{},
		responder.NewProfile(responder.WithValidity(24*time.Hour), responder.WithCachedResponses(0)))
	h := ocspserver.NewHandler(cached)
	u, err := url.Parse("http://probe.bench.test/" + ocsp.EncodeGETPath(reqDER))
	if err != nil {
		return err
	}
	get := &http.Request{Method: http.MethodGet, URL: u, Header: make(http.Header)}
	w := &nullWriter{hdr: make(http.Header, 8)}
	h.ServeHTTP(w, get) // fills the fast-path memo
	hits0, _, _ := h.FastPathStats()
	getHit, _ := perCall(iters, func(int) error { h.ServeHTTP(w, get); return nil })
	hits1, _, _ := h.FastPathStats()
	o.check(hits1-hits0 == uint64(iters), "in-process GETs: %d of %d were memo hits", hits1-hits0, iters)

	// An on-demand responder keys its cache on the exact instant, so on
	// the real clock every call is parsed and signed.
	onDemand := responder.New("probe.bench.test", f.ca, f.db, clock.Real{},
		responder.NewProfile(responder.WithValidity(24*time.Hour)))
	respondMiss, err := perCall(signIters, func(int) error {
		res, err := onDemand.Respond(ctx, reqDER)
		if err == nil && res.Source != responder.SourceSigned {
			err = fmt.Errorf("Respond served from %v, want a fresh signature", res.Source)
		}
		return err
	})
	o.check(err == nil, "Respond: %v", err)

	id, err := ocsp.NewCertIDForSerial(f.serial, f.ca.Certificate, crypto.SHA1)
	if err != nil {
		return err
	}
	now := time.Now()
	singles := []ocsp.SingleResponse{{CertID: id, Status: ocsp.Good, ThisUpdate: now, NextUpdate: now.Add(24 * time.Hour), Reason: pkixutil.ReasonAbsent}}
	tmpl := &ocsp.ResponderTemplate{Signer: f.ca.Key, Certificate: f.ca.Certificate}
	create, err := perCall(signIters, func(int) error {
		_, err := ocsp.CreateResponse(tmpl, now, singles, nil)
		return err
	})
	o.check(err == nil, "CreateResponse: %v", err)

	decode, err := perCall(iters, func(i int) error {
		_, err := expectstaple.DecodeReport(f.reports[i%len(f.reports)])
		return err
	})
	o.check(err == nil, "DecodeReport: %v", err)

	o.set("ocspserver.inproc_get_hit_ns", "ns", getHit)
	o.set("responder.respond_miss_us", "us", respondMiss/1e3)
	o.set("ocsp.create_response_us", "us", create/1e3)
	o.set("expectstaple.decode_ns", "ns", decode)
	return nil
}
