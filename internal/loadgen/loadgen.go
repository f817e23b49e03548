// Package loadgen is an open-loop constant-rate load generator for the
// OCSP serving tier. Open-loop means requests are scheduled on a fixed
// timetable regardless of how fast the server answers, and each latency
// is measured from the request's *scheduled* send time — the discipline
// (after wrk2) that avoids coordinated omission, where a stalled server
// silently pauses the load and the stall never shows up in the tail.
package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/ocsp"
)

// Target is one pre-marshaled request body aimed at a URL. Marshaling
// happens once, outside the timed loop: the generator measures the
// server, not the client's encoder.
type Target struct {
	// URL is the endpoint base URL (no trailing path).
	URL string
	// ReqDER is the marshaled request body (an OCSP request by default;
	// any opaque payload when ContentType is set).
	ReqDER []byte
	// GETPath caches EncodeGETPath(ReqDER); Run fills it when empty.
	// Unused when ContentType is set.
	GETPath string
	// Weight is the target's share of the request stream relative to the
	// other targets' weights; 0 counts as 1. A mixed workload — e.g. OCSP
	// serving at weight 9 alongside a violation-report endpoint at weight
	// 1 — stays a pure function of the seed.
	Weight int
	// ContentType switches the target to a generic POST-body workload:
	// every request is a POST of ReqDER with this media type (GETFraction
	// does not apply). Empty means the OCSP GET/POST request semantics.
	ContentType string
}

// Config shapes a run.
type Config struct {
	// Rate is the scheduled request rate per second (open loop: the
	// timetable does not slow down when the server does).
	Rate int
	// Duration is how long to schedule requests for; the run drains
	// in-flight requests past this point.
	Duration time.Duration
	// Workers is the number of concurrent senders. It bounds in-flight
	// requests; if the server cannot keep Rate with this concurrency, the
	// backlog shows up honestly in the tail latencies. 0 means 2×Rate/100
	// clamped to [8, 256].
	Workers int
	// GETFraction in [0,1] is the share of requests sent as RFC 5019 GETs;
	// the rest are POSTs. Drawn deterministically per request index.
	GETFraction float64
	// Seed drives the deterministic method/target mix.
	Seed uint64
	// Timeout bounds each request (0: 10s).
	Timeout time.Duration
	// Clock supplies timestamps (nil: clock.Real). Scheduling sleeps real
	// time regardless; the clock only timestamps sends and latencies.
	Clock clock.Clock
	// Client overrides the HTTP client (nil: a pooled transport sized to
	// Workers, HTTP keep-alive on — connection reuse is the point of
	// measuring a production serving tier).
	Client *http.Client
}

// Hist is the HDR latency histogram every run records into. It is an
// alias, not a defined type, so it keeps metrics.Hist's methods.
type Hist = metrics.Hist

// Result aggregates a run.
type Result struct {
	// Scheduled is the number of requests the timetable called for;
	// Completed is how many returned a 2xx status with a drained body
	// (200 from a responder, 202 from a report collector).
	Scheduled uint64
	Completed uint64
	// TransportErrors are connect/timeout/read failures; HTTPErrors are
	// non-2xx statuses, with Status5xx the subset ≥ 500.
	TransportErrors uint64
	HTTPErrors      uint64
	Status5xx       uint64
	// Overall, GET, and POST are latency histograms in nanoseconds,
	// measured from each request's scheduled send time.
	Overall Hist
	GET     Hist
	POST    Hist
	// Elapsed is the wall time from first schedule to last completion.
	Elapsed time.Duration
}

// Throughput returns completed requests per second over the elapsed run.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

type job struct {
	index     uint64
	scheduled time.Time
}

// Run drives an open-loop constant-rate workload against targets and
// returns the aggregated result. The mixed GET/POST request stream is a
// pure function of cfg.Seed, so two runs against the same server compare
// like with like.
func Run(ctx context.Context, cfg Config, targets []Target) (*Result, error) {
	if len(targets) == 0 {
		return nil, errors.New("loadgen: no targets")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: rate %d must be positive", cfg.Rate)
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration %v must be positive", cfg.Duration)
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = 2 * cfg.Rate / 100
		if workers < 8 {
			workers = 8
		}
		if workers > 256 {
			workers = 256
		}
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{
			Timeout: timeout,
			Transport: &http.Transport{
				MaxIdleConns:        workers,
				MaxIdleConnsPerHost: workers,
			},
		}
	}
	// Prefix-sum the target weights once; per-request selection is a
	// draw against the cumulative table. All-default weights degenerate
	// to the old uniform pick.
	cum := make([]uint64, len(targets))
	var totalWeight uint64
	for i := range targets {
		if targets[i].GETPath == "" && targets[i].ContentType == "" {
			targets[i].GETPath = ocsp.EncodeGETPath(targets[i].ReqDER)
		}
		w := targets[i].Weight
		if w <= 0 {
			w = 1
		}
		totalWeight += uint64(w)
		cum[i] = totalWeight
	}
	pick := func(draw uint64) *Target {
		x := draw % totalWeight
		i := sort.Search(len(cum), func(i int) bool { return x < cum[i] })
		return &targets[i]
	}

	total := uint64(float64(cfg.Rate) * cfg.Duration.Seconds())
	if total == 0 {
		total = 1
	}
	interval := time.Duration(int64(time.Second) / int64(cfg.Rate))

	res := &Result{Scheduled: total}
	var transportErrs, httpErrs, status5xx, completed atomic.Uint64

	// The job channel is deep enough to absorb a stalled server for the
	// whole run: the scheduler never blocks, which is what makes the loop
	// open. A job sits queued with its scheduled timestamp, and the queue
	// delay lands in its measured latency.
	jobs := make(chan job, total)
	results := make([]struct {
		overall, get, post Hist
	}, workers)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			slot := &results[w]
			for j := range jobs {
				draw := hashx.Mix(cfg.Seed^j.index, 0)
				tgt := pick(draw >> 32)
				isGET := tgt.ContentType == "" && float64(draw&0xffffffff)/float64(1<<32) < cfg.GETFraction

				rctx, cancel := context.WithTimeout(ctx, timeout)
				var (
					httpReq *http.Request
					err     error
				)
				if isGET {
					httpReq, err = http.NewRequestWithContext(rctx, http.MethodGet, tgt.URL+"/"+tgt.GETPath, nil)
				} else {
					httpReq, err = http.NewRequestWithContext(rctx, http.MethodPost, tgt.URL, bytes.NewReader(tgt.ReqDER))
					if httpReq != nil {
						ct := tgt.ContentType
						if ct == "" {
							ct = ocsp.ContentTypeRequest
						}
						httpReq.Header.Set("Content-Type", ct)
					}
				}
				if err != nil {
					cancel()
					transportErrs.Add(1)
					continue
				}
				resp, err := client.Do(httpReq)
				if err != nil {
					cancel()
					transportErrs.Add(1)
					continue
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close() //lint:allow errcheck-hot drain error above already marks the request failed
				cancel()
				if err != nil {
					transportErrs.Add(1)
					continue
				}
				lat := clk.Now().Sub(j.scheduled)
				if resp.StatusCode < 200 || resp.StatusCode > 299 {
					httpErrs.Add(1)
					if resp.StatusCode >= 500 {
						status5xx.Add(1)
					}
					continue
				}
				completed.Add(1)
				slot.overall.RecordDuration(lat)
				if isGET {
					slot.get.RecordDuration(lat)
				} else {
					slot.post.RecordDuration(lat)
				}
			}
		}(w)
	}

	// The scheduler: fire each job at start + i*interval, sleeping between
	// ticks. Sleep drift is corrected every tick by re-reading the clock,
	// and the scheduled (not actual) timestamp rides with the job.
	start := clk.Now()
	var scheduled uint64
	// One reused timer across all ticks: time.After allocates a fresh
	// timer per tick, which at tens of thousands of req/s is the
	// generator's own hottest allocation site.
	tick := time.NewTimer(time.Hour)
	if !tick.Stop() {
		<-tick.C
	}
	defer tick.Stop()
schedule:
	for i := uint64(0); i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := due.Sub(clk.Now()); wait > 0 {
			tick.Reset(wait)
			select {
			case <-ctx.Done():
				if !tick.Stop() {
					<-tick.C
				}
				break schedule
			case <-tick.C:
			}
		} else if ctx.Err() != nil {
			break schedule
		}
		jobs <- job{index: i, scheduled: due}
		scheduled++
	}
	close(jobs)
	wg.Wait()

	res.Scheduled = scheduled
	res.TransportErrors = transportErrs.Load()
	res.HTTPErrors = httpErrs.Load()
	res.Status5xx = status5xx.Load()
	res.Completed = completed.Load()
	for w := range results {
		res.Overall.Merge(&results[w].overall)
		res.GET.Merge(&results[w].get)
		res.POST.Merge(&results[w].post)
	}
	res.Elapsed = clk.Now().Sub(start)
	return res, ctx.Err()
}
