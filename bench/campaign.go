package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/impact"
	"github.com/netmeasure/muststaple/internal/loadgen"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/report"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/store"
	"github.com/netmeasure/muststaple/internal/world"
)

// worldConfig is repro's quick configuration (536 responders × 3
// certificates, 12 h stride) over campaignDays from the paper's first
// scan day.
func worldConfig(cfg config) world.Config {
	start := time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	return world.Config{
		Seed:              int64(cfg.seed),
		CertsPerResponder: 3,
		Stride:            12 * time.Hour,
		Start:             start,
		End:               start.AddDate(0, 0, cfg.campaignDays),
	}
}

// hourly is the aggregator set repro attaches to the Hourly campaign
// (core's ensureHourly): the inputs of Figures 3 and 5–9, the
// availability summary, the hard-fail analysis, and the latency table.
type hourly struct {
	avail    *scanner.AvailabilitySeries
	unusable *scanner.UnusableSeries
	quality  *scanner.QualityAggregator
	respAv   *scanner.ResponderAvailability
	hardFail *impact.HardFail
	latency  *scanner.LatencyAggregator
}

func newHourly(stride time.Duration) *hourly {
	return &hourly{
		avail:    scanner.NewAvailabilitySeries(stride),
		unusable: scanner.NewUnusableSeries(stride),
		quality:  scanner.NewQualityAggregator(),
		respAv:   scanner.NewResponderAvailability(),
		hardFail: impact.NewHardFail(),
		latency:  scanner.NewLatencyAggregator(),
	}
}

func (h *hourly) list() []scanner.Aggregator {
	return []scanner.Aggregator{h.avail, h.unusable, h.quality, h.respAv, h.hardFail, h.latency}
}

// render writes every figure and table the aggregators feed.
func (h *hourly) render() []byte {
	var b bytes.Buffer
	report.Figure3(&b, h.avail, 1)
	report.AvailabilitySummary(&b, h.respAv)
	report.Figure5(&b, h.unusable)
	report.Quality(&b, h.quality)
	report.HardFail(&b, h.hardFail.Results())
	report.Latency(&b, h.latency)
	return b.Bytes()
}

// roundSink persists rounds through the store; a traced run times them.
// The engine calls AppendRound once per round from its writer goroutine,
// so the gap between consecutive calls is one round (the first gap runs
// from the campaign's start), and the call itself is the store's append.
type roundSink struct {
	inner scanner.RoundSink
	tr    *tracer // nil when untraced
	last  time.Time
}

func (s *roundSink) AppendRound(at time.Time, obs []scanner.Observation) error {
	if s.tr == nil {
		return s.inner.AppendRound(at, obs)
	}
	start := time.Now()
	s.tr.root("scanner.round", s.last, start)
	s.last = start
	err := s.inner.AppendRound(at, obs)
	s.tr.root("store.append_round", start, time.Now())
	return err
}

// calibrateEvery is how long a calibrated campaign runs between two
// samples of the calibration kernel.
const calibrateEvery = 250 * time.Millisecond

// lookupTimer times every simulated exchange, which is one OCSP lookup as
// the scanner sees it; a traced run also records it as a span.
//
// Given a calibration kernel, it also cuts the campaign into slices of
// calibrateEvery, as a serving workload's windows are cut: the first lookup
// due after that waits until the lookups in flight have finished, samples
// the kernel while none runs, and lets the campaign go on. Each slice's
// lookups and wall time are brought to reference speed by the mean of the
// samples around it. The pause keeps the engine's pipeline filled, so the
// campaign runs as it would unpaused.
type lookupTimer struct {
	inner scanner.Transport
	tr    *tracer    // nil when untraced
	ref   *refServer // nil: one raw slice, no pauses

	gate sync.RWMutex // held shared by each lookup, exclusively by a pause
	due  atomic.Int64 // when the next pause is due, in Unix nanoseconds

	mu     sync.Mutex
	slice  []time.Duration // raw lookup times of the open slice
	opened time.Time       // when the open slice began
	before time.Duration   // the kernel sample that opened it
	times  []time.Duration // every closed slice's lookup times at reference speed
	wall   time.Duration   // the closed slices' wall time at reference speed
	err    error           // the first failed kernel sample
}

func (t *lookupTimer) Do(v netsim.Vantage, at time.Time, req *http.Request) (*netsim.Result, error) {
	if t.ref != nil && time.Now().UnixNano() >= t.due.Load() {
		t.pause()
	}
	t.gate.RLock()
	defer t.gate.RUnlock()
	start := time.Now()
	res, err := t.inner.Do(v, at, req)
	end := time.Now()
	if t.tr != nil {
		t.tr.root("netsim.do", start, end)
	}
	t.mu.Lock()
	t.slice = append(t.slice, end.Sub(start))
	t.mu.Unlock()
	return res, err
}

// open starts the first slice, just before the campaign runs.
func (t *lookupTimer) open() error {
	if t.ref != nil {
		d, err := t.ref.sample()
		if err != nil {
			return err
		}
		t.before = d
		t.due.Store(time.Now().Add(calibrateEvery).UnixNano())
	}
	t.opened = time.Now()
	return nil
}

// pause closes the open slice once no lookup is in flight.
func (t *lookupTimer) pause() {
	t.gate.Lock()
	defer t.gate.Unlock()
	if time.Now().UnixNano() < t.due.Load() {
		return // another lookup paused first
	}
	if err := t.closeSlice(); err != nil {
		t.mu.Lock()
		t.err = err
		t.mu.Unlock()
		t.due.Store(math.MaxInt64) // no more pauses; the run fails at the end
		return
	}
	t.due.Store(time.Now().Add(calibrateEvery).UnixNano())
}

// closeSlice samples the kernel, files the open slice at reference speed,
// and opens the next. No lookup may run meanwhile: a pause holds the gate,
// and the final call comes after the campaign.
func (t *lookupTimer) closeSlice() error {
	end := time.Now()
	slow := 1.0
	if t.ref != nil {
		after, err := t.ref.sample()
		if err != nil {
			return err
		}
		slow = slowdownOf((t.before + after) / 2)
		t.before = after
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range t.slice {
		t.times = append(t.times, time.Duration(float64(d)/slow))
	}
	t.slice = t.slice[:0]
	t.wall += time.Duration(float64(end.Sub(t.opened)) / slow)
	t.opened = time.Now()
	return nil
}

// finish closes the last slice and returns the campaign's lookup times and
// wall time, at reference speed when calibrated.
func (t *lookupTimer) finish() ([]time.Duration, time.Duration, error) {
	t.mu.Lock()
	err := t.err
	t.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	if err := t.closeSlice(); err != nil {
		return nil, 0, err
	}
	return t.times, t.wall, nil
}

// timedAgg records a span around every observation an aggregator folds.
type timedAgg struct {
	inner scanner.Aggregator
	tr    *tracer
}

func (a *timedAgg) Add(o scanner.Observation) {
	start := time.Now()
	a.inner.Add(o)
	a.tr.root("scanner.aggregate", start, time.Now())
}

// timedShardedAgg keeps a sharded aggregator sharded: its shards are
// timed too, and Merge hands the inner shards back.
type timedShardedAgg struct {
	timedAgg
	sharded scanner.ShardedAggregator
}

func (a *timedShardedAgg) NewShard() scanner.Aggregator {
	return &timedAgg{inner: a.sharded.NewShard(), tr: a.tr}
}

func (a *timedShardedAgg) Merge(shard scanner.Aggregator) {
	a.sharded.Merge(shard.(*timedAgg).inner)
}

func timeAggregators(aggs []scanner.Aggregator, tr *tracer) []scanner.Aggregator {
	out := make([]scanner.Aggregator, len(aggs))
	for i, a := range aggs {
		if sa, ok := a.(scanner.ShardedAggregator); ok {
			out[i] = &timedShardedAgg{timedAgg: timedAgg{inner: a, tr: tr}, sharded: sa}
		} else {
			out[i] = &timedAgg{inner: a, tr: tr}
		}
	}
	return out
}

// campaignSystem is one campaign ready to run: a fresh world (campaigns
// advance its clock, so none is reused), a store, and the aggregators.
type campaignSystem struct {
	w       *world.World
	dir     string
	st      *store.Store
	live    *hourly
	sink    *roundSink
	lookups *lookupTimer
	camp    *scanner.Campaign
	aggs    []scanner.Aggregator
}

func buildCampaign(cfg config, tr *tracer, ref *refServer) (*campaignSystem, error) {
	w, err := world.Build(worldConfig(cfg))
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "campaign-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	s := &campaignSystem{w: w, dir: dir, st: st, live: newHourly(w.Config.Stride)}
	s.aggs = s.live.list()
	if tr != nil {
		s.aggs = timeAggregators(s.aggs, tr)
	}
	s.lookups = &lookupTimer{inner: w.Network, tr: tr, ref: ref}
	s.sink = &roundSink{inner: st, tr: tr}
	s.camp, err = scanner.NewCampaign(&scanner.Client{Transport: s.lookups}, w.Clock,
		scanner.WithTargets(w.Targets...),
		scanner.WithWindow(w.Config.Start, w.Config.End),
		scanner.WithStride(w.Config.Stride),
		scanner.WithStore(s.sink),
	)
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *campaignSystem) close() error {
	return errors.Join(s.st.Close(), os.RemoveAll(s.dir))
}

// fixture returns the in-process layer calls' inputs from the world: the
// first healthy responder's CA, database, and a probed serial.
func (s *campaignSystem) fixture(seed uint64) (fixture, error) {
	for _, info := range s.w.Responders {
		if info.Kind != world.KindHealthy {
			continue
		}
		for _, t := range s.w.Targets {
			if t.Responder == info.Host {
				return fixture{ca: info.CA, db: info.DB, serial: new(big.Int).Set(t.Serial), reports: reportBodies(seed)}, nil
			}
		}
	}
	return fixture{}, fmt.Errorf("the world has no healthy responder with a target")
}

// setUpCampaign builds a campaign, timing the set-up.
func setUpCampaign(cfg config, tr *tracer, ref *refServer) (*campaignSystem, float64, error) {
	var s *campaignSystem
	secs, err := timeSetUp(ref, func() (err error) {
		s, err = buildCampaign(cfg, tr, ref)
		return err
	})
	return s, secs, err
}

// campaignRun is what one measured campaign yielded.
type campaignRun struct {
	setup      float64       // seconds, at reference speed when calibrated
	wall       time.Duration // at reference speed when calibrated
	scans      int
	lookups    roundTrips // every lookup, at reference speed when calibrated
	heapMiB    float64
	foldPerS   float64
	peakQueue  int64
	cacheRatio float64
	fixture    fixture
}

// runOneCampaign builds, runs, and checks one campaign: the store must
// hold every scan, and the figures rendered from the live aggregators
// must equal those rendered from a refold of the store.
func runOneCampaign(ctx context.Context, cfg config, tr *tracer, ref *refServer, use *usageDelta, o *outcome) (*campaignRun, error) {
	s, setup, err := setUpCampaign(cfg, tr, ref)
	if err != nil {
		return nil, err
	}
	if err := s.lookups.open(); err != nil {
		return nil, errors.Join(err, s.close())
	}
	before := readUsage()
	s.sink.last = time.Now()
	n, err := s.camp.Run(ctx, s.aggs...)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("campaign: %w", err), s.close())
	}
	if use != nil {
		use.add(before, readUsage(), int64(n))
	}
	times, wall, err := s.lookups.finish()
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	r := &campaignRun{setup: setup, wall: wall, scans: n, lookups: newRoundTrips(times)}
	r.heapMiB = liveHeapMiB()
	r.peakQueue = s.camp.Stats().PeakQueueDepth
	r.cacheRatio = ratio(s.w.CacheStats())
	if r.fixture, err = s.fixture(cfg.seed); err != nil {
		return nil, errors.Join(err, s.close())
	}

	o.attempted += int64(n)
	records := s.st.Stats().Records
	o.check(records == int64(n), "store holds %d records for %d scans", records, n)
	folded := newHourly(s.w.Config.Stride)
	foldStart := time.Now()
	m, err := report.StreamInto(s.st.Reader(), folded.list()...)
	r.foldPerS = float64(m) / time.Since(foldStart).Seconds()
	o.check(err == nil && m == n, "store refold streamed %d observations for %d scans (err %v)", m, n, err)
	o.check(bytes.Equal(s.live.render(), folded.render()), "figures from the live aggregators differ from the store refold")
	return r, s.close()
}

// runCampaignWorkload runs campaigns back to back until the measured span
// is used up; an untraced run times two more set-ups after each campaign.
// The metrics are medians over the campaigns, each calibrated slice by
// slice. A traced run alternates untraced and traced campaigns, so the
// tracing overhead is measured against the same host conditions; it does
// not calibrate.
func runCampaignWorkload(ctx context.Context, cfg config) (_ *outcome, err error) {
	o := newOutcome()
	var tr *tracer
	var ref *refServer
	minRuns := 1
	extraSetups := 2
	if cfg.trace {
		tr = newTracer()
		zeroLayerMetrics(o)
		minRuns, extraSetups = 2, 0
	} else {
		if ref, err = startRefServer(); err != nil {
			return nil, err
		}
		defer func() { err = errors.Join(err, ref.close()) }()
	}

	var plain, traced []*campaignRun
	var setups []float64
	var use usageDelta
	began := time.Now()
	var last time.Duration
	for k := 0; k < minRuns || time.Since(began)+last/2 < cfg.measure; k++ {
		runStart := time.Now()
		var r *campaignRun
		if cfg.trace && k%2 == 1 {
			r, err = runOneCampaign(ctx, cfg, tr, nil, nil, o)
		} else {
			r, err = runOneCampaign(ctx, cfg, nil, ref, &use, o)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup)
		if cfg.trace && k%2 == 1 {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		for i := 0; i < extraSetups; i++ {
			s, secs, err := setUpCampaign(cfg, nil, ref)
			if err != nil {
				return nil, err
			}
			if err := s.close(); err != nil {
				return nil, err
			}
			setups = append(setups, secs)
		}
		last = time.Since(runStart)
	}

	var sps, heaps, folds, caches []float64
	var lookups []roundTrips
	for _, r := range plain {
		sps = append(sps, float64(r.scans)/r.wall.Seconds())
		lookups = append(lookups, r.lookups)
		heaps = append(heaps, r.heapMiB)
	}
	fmt.Fprintf(os.Stderr, "bench: campaign: %d untraced and %d traced campaigns of %d days, %d set-ups\n",
		len(plain), len(traced), cfg.campaignDays, len(setups))
	if !cfg.trace {
		samples := reportLoad(o, sps, lookups)
		fmt.Fprintf(os.Stderr, "bench: campaign: latency from %d lookups; %v\n", samples, ref)
		o.set("setup_s", "s", median(setups))
		o.set("heap_live_mib", "MiB", median(heaps))
		return o, nil
	}

	all := append(append([]*campaignRun(nil), plain...), traced...)
	for _, r := range all {
		folds = append(folds, r.foldPerS)
		caches = append(caches, r.cacheRatio)
	}
	var tracedSps []float64
	var tracedWall time.Duration
	var tracedScans int
	var peak int64
	for _, r := range traced {
		tracedSps = append(tracedSps, float64(r.scans)/r.wall.Seconds())
		tracedWall += r.wall
		tracedScans += r.scans
		peak = max(peak, r.peakQueue)
	}
	use.report(o)
	o.set("trace.overhead_frac", "ratio", 1-median(tracedSps)/median(sps))
	o.set("responder.cache_hit_ratio", "ratio", median(caches))
	o.set("store.fold_records_per_s", "1/s", median(folds))
	o.set("scanner.queue_depth_peak", "count", float64(peak))
	if err := runProbes(ctx, all[len(all)-1].fixture, cfg.probeIters, o); err != nil {
		return nil, fmt.Errorf("in-process calls: %w", err)
	}

	hists, spans, _ := tr.snapshot()
	do, agg, round, app := hists["netsim.do"], hists["scanner.aggregate"], hists["scanner.round"], hists["store.append_round"]
	o.set("netsim.do_p50_us", "us", quantileUs(do, 0.5))
	o.set("netsim.do_p99_us", "us", quantileUs(do, 0.99))
	if agg != nil && tracedScans > 0 {
		o.set("scanner.aggregate_ns_per_obs", "ns", agg.Mean()*float64(agg.Count())/float64(tracedScans))
	}
	o.set("scanner.round_p50_ms", "ms", quantileUs(round, 0.5)/1e3)
	o.set("store.append_round_p50_ms", "ms", quantileUs(app, 0.5)/1e3)
	o.set("store.append_round_p99_ms", "ms", quantileUs(app, 0.99)/1e3)

	rows := []layerRow{
		wallRow("netsim.do (per exchange)", do, tracedWall),
		wallRow("scanner.aggregate (per Add)", agg, tracedWall),
		wallRow("store.append_round", app, tracedWall),
		wallRow("scanner.round", round, tracedWall),
	}
	printLayerTable(os.Stderr, "campaign",
		fmt.Sprintf("traced campaign wall time %.3f s; busy time summed over goroutines", tracedWall.Seconds()), rows)
	return o, writeSpans(cfg.traceDir, "campaign", spans)
}

// wallRow is a layer-table row whose share is the layer's busy time,
// summed over goroutines, over the campaign's wall time.
func wallRow(layer string, h *loadgen.Hist, wall time.Duration) layerRow {
	if h == nil || wall <= 0 {
		return layerRow{layer: layer}
	}
	return layerRow{
		layer:   layer,
		count:   h.Count(),
		selfP50: time.Duration(h.Quantile(0.5)),
		selfP99: time.Duration(h.Quantile(0.99)),
		share:   h.Mean() * float64(h.Count()) / float64(wall),
	}
}
