// Package core is the public façade of the reproduction: it wires the
// simulated world, the measurement campaigns, and the report renderers
// into named experiments — one per table and figure of the paper — so that
// cmd/repro, the benchmarks, and downstream users drive everything through
// one API.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"time"

	"github.com/netmeasure/muststaple/internal/browser"
	"github.com/netmeasure/muststaple/internal/census"
	"github.com/netmeasure/muststaple/internal/consistency"
	"github.com/netmeasure/muststaple/internal/impact"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/report"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/stats"
	"github.com/netmeasure/muststaple/internal/store"
	"github.com/netmeasure/muststaple/internal/vulnwindow"
	"github.com/netmeasure/muststaple/internal/webserver"
	"github.com/netmeasure/muststaple/internal/world"
)

// Runner executes experiments against one lazily built world.
type Runner struct {
	// Config sizes the world; the zero value (plus Seed) is the default
	// scaled reproduction.
	Config world.Config
	// Out receives the rendered tables and figures.
	Out io.Writer

	// StoreDir, when non-empty, persists every campaign round to a
	// durable observation store under this directory (one subdirectory
	// per campaign: "hourly", "alexa").
	StoreDir string
	// Resume continues an interrupted stored campaign from its last
	// checkpoint: the persisted prefix is replayed through the
	// aggregators and scanning restarts at the following round. The
	// world is rebuilt from the same seed, so the combined run is
	// byte-identical to an uninterrupted one.
	Resume bool
	// CrashAfterRounds arms the store's crash failpoint (see
	// store.Options.CrashAfterRounds) — CI crash-recovery drills only.
	CrashAfterRounds int

	w *world.World

	// Cached campaign results, so "all" runs each campaign once.
	hourly          *hourlyResults
	alexa           *alexaResults
	qualityDone     bool
	consistencyDone bool

	// reg accumulates cross-experiment instrumentation (wall-time
	// histogram, fleet cache counters).
	reg *metrics.Registry
	// releasedHits and releasedMisses sum the final cache counters of
	// every world an experiment built for itself and released, so
	// per-experiment cache-stat deltas cover them after they are gone.
	releasedHits, releasedMisses uint64
}

type hourlyResults struct {
	avail    *scanner.AvailabilitySeries
	unusable *scanner.UnusableSeries
	quality  *scanner.QualityAggregator
	respAv   *scanner.ResponderAvailability
	hardFail *impact.HardFail
	latency  *scanner.LatencyAggregator
	scans    int
}

type alexaResults struct {
	impact *scanner.DomainImpact
	scans  int
}

// NewRunner builds a runner.
func NewRunner(cfg world.Config, out io.Writer) *Runner {
	return &Runner{Config: cfg, Out: out}
}

// World returns the built world, building it on first use.
//
// Campaigns never share a world: the simulated clock only moves forward,
// so replaying a second campaign on an already-advanced world would skew
// every time-derived field. freshWorld hands each campaign its own
// identically seeded copy instead, which the campaign releases when its
// experiment returns.
func (r *Runner) World() (*world.World, error) {
	if r.w == nil {
		w, err := r.buildWorld()
		if err != nil {
			return nil, err
		}
		r.w = w
	}
	return r.w, nil
}

func (r *Runner) freshWorld() (*world.World, error) {
	return r.buildWorld()
}

// buildWorld constructs a world and reports the construction wall time —
// at paper scale the per-responder key generation dominates setup, so the
// build cost is worth surfacing next to each campaign's engine stats. The
// measurement runs through the registry's clock (wall by default), which
// also lands it in the world_build_seconds histogram.
func (r *Runner) buildWorld() (*world.World, error) {
	stop := r.registry().Timer("world_build_seconds")
	w, err := world.Build(r.Config)
	if err != nil {
		return nil, err
	}
	report.WorldBuild(r.Out, stop(), r.Config.BuildWorkers)
	return w, nil
}

// release adds the final cache counters of a world an experiment built
// for itself (a fresh world or the consistency study) to the runner's
// totals. Nothing refers to the world after its experiment returns, so
// the collector can take it: a run of every experiment holds one such
// world at a time, not all of them.
func (r *Runner) release(w interface{ CacheStats() (uint64, uint64) }) {
	h, m := w.CacheStats()
	r.releasedHits += h
	r.releasedMisses += m
}

// registry returns the runner's metrics registry, creating it on first use
// (runners are also constructed as plain literals in tests).
func (r *Runner) registry() *metrics.Registry {
	if r.reg == nil {
		r.reg = metrics.NewRegistry()
	}
	return r.reg
}

// cacheStats sums signed-response cache counters over every world built by
// this runner so far: the released ones and the cached one.
func (r *Runner) cacheStats() (hits, misses uint64) {
	hits, misses = r.releasedHits, r.releasedMisses
	if r.w != nil {
		h, m := r.w.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// Experiments lists the runnable experiment names in presentation order.
func Experiments() []string {
	return []string{
		"sec4", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "ondemand", "table1", "fig10", "table2", "fig11",
		"fig12", "table3", "cdn", "hardfail", "latency", "vulnwindow",
		"expectstaple",
	}
}

// Run executes one named experiment ("all" runs every one). ctx cancels
// in-flight measurement campaigns; the first canceled campaign surfaces
// the context error.
//
// Each experiment is accounted for as it completes: wall time lands in the
// registry's experiment_wall_seconds histogram and the responder fleet's
// cache hit/miss deltas in responder_cache_{hits,misses}_total, and both
// are rendered as a per-experiment stats line.
func (r *Runner) Run(ctx context.Context, name string) error {
	if name == "all" {
		for _, exp := range Experiments() {
			if err := r.Run(ctx, exp); err != nil {
				return fmt.Errorf("core: %s: %w", exp, err)
			}
		}
		return nil
	}
	h0, m0 := r.cacheStats()
	stop := r.registry().Timer("experiment_wall_seconds")
	if err := r.dispatch(ctx, name); err != nil {
		return err
	}
	wall := stop()
	h1, m1 := r.cacheStats()
	r.reg.Counter("responder_cache_hits_total").Add(int64(h1 - h0))
	r.reg.Counter("responder_cache_misses_total").Add(int64(m1 - m0))
	report.ExperimentStats(r.Out, name, wall, h1-h0, m1-m0)
	return nil
}

func (r *Runner) dispatch(ctx context.Context, name string) error {
	switch name {
	case "sec4":
		return r.runSection4()
	case "fig2":
		return r.runFigure2()
	case "fig3", "fig5", "fig6", "fig7", "fig8", "fig9", "ondemand", "hardfail", "latency":
		return r.runHourly(ctx, name)
	case "vulnwindow":
		return r.runVulnWindow()
	case "fig4":
		return r.runFigure4(ctx)
	case "table1", "fig10":
		return r.runConsistency()
	case "table2":
		return r.runTable2()
	case "fig11":
		return r.runFigure11()
	case "fig12":
		return r.runFigure12()
	case "table3":
		return r.runTable3()
	case "cdn":
		return r.runCDN(ctx)
	case "expectstaple":
		return r.runExpectStaple(ctx)
	default:
		return fmt.Errorf("core: unknown experiment %q (have %v)", name, Experiments())
	}
}

// runSection4 re-measures the §4 headline numbers by streaming the
// world's certificate corpus — generated record by record, never
// materialized — so a paper-scale (WorldScale 10,000) census runs in the
// same resident set as the default one.
func (r *Runner) runSection4() error {
	w, err := r.World()
	if err != nil {
		return err
	}
	model, _ := r.alexaModel()
	report.Section4(r.Out, w.Corpus.Stats(), model.Stats(), w.AlexaScale)
	return nil
}

// alexaModel builds the streaming Alexa domain model for the runner's
// configuration (WorldScale applied).
func (r *Runner) alexaModel() (*census.AlexaModel, int) {
	cfg := r.Config.Normalized()
	acfg := census.AlexaConfig{Seed: cfg.Seed + 1, Domains: cfg.ScaledAlexaDomains()}
	return census.NewAlexaModel(acfg), acfg.ScaleFactor()
}

func (r *Runner) runFigure2() error {
	model, scale := r.alexaModel()
	binWidth := model.NumDomains() / 100
	https, ocspOfHTTPS := model.Figure2(binWidth)
	report.RankSeries(r.Out, "Figure 2: HTTPS and OCSP adoption vs Alexa rank", scale, map[string][]stats.BinRate{
		"HTTPS":         https,
		"OCSP-of-HTTPS": ocspOfHTTPS,
	})
	return nil
}

func (r *Runner) runFigure11() error {
	model, scale := r.alexaModel()
	binWidth := model.NumDomains() / 100
	report.RankSeries(r.Out, "Figure 11: OCSP Stapling adoption vs Alexa rank", scale, map[string][]stats.BinRate{
		"Stapling-of-OCSP": model.Figure11(binWidth),
	})
	return nil
}

func (r *Runner) runFigure12() error {
	report.Figure12(r.Out, census.GenerateHistory(r.Config.Seed))
	return nil
}

// openCampaignStore opens the durable observation store for one campaign
// (a subdirectory of StoreDir) and derives the campaign options wiring it
// in: the per-round sink always; on resume, additionally the replay of
// the committed rounds and a window that restarts scanning at the round
// after the checkpoint. Open has already cut the log back to that
// checkpoint, so a store whose crash left none opens empty and runs from
// the start. Returns (nil, nil, nil) when no store is configured. The
// caller owns the returned store and must Close it after the campaign.
func (r *Runner) openCampaignStore(sub string, end time.Time, stride time.Duration) (*store.Store, []scanner.Option, error) {
	if r.StoreDir == "" {
		return nil, nil, nil
	}
	dir := filepath.Join(r.StoreDir, sub)
	st, err := store.Open(dir, store.Options{
		Metrics:          r.registry(),
		CrashAfterRounds: r.CrashAfterRounds,
	})
	if err != nil {
		return nil, nil, err
	}
	opts := []scanner.Option{scanner.WithStore(st)}
	stats := st.Stats()
	if !stats.HasCheckpoint {
		return st, opts, nil
	}
	if !r.Resume {
		err := fmt.Errorf("core: store %s already holds %d rounds; pass -resume to continue it or use a fresh -store directory", dir, stats.Rounds)
		return nil, nil, errors.Join(err, st.Close())
	}
	// Replay the committed rounds and scan on from the next one. The
	// replay restores aggregator state and engine counters exactly, so
	// the resumed run's output matches an uninterrupted one.
	ck := stats.Checkpoint
	resumeAt := time.Unix(0, ck.Round).UTC().Add(stride)
	if resumeAt.After(end) {
		resumeAt = end // fully persisted campaign: replay only, no scans
	}
	opts = append(opts,
		scanner.WithReplay(st.Reader().Scan, ck.Rounds),
		scanner.WithWindow(resumeAt, end),
	)
	return st, opts, nil
}

// closeStore folds a store's Close error into a campaign error (a store
// that cannot make its tail durable is a failed campaign, even when the
// scans themselves succeeded).
func closeStore(st *store.Store, err error) error {
	if st == nil {
		return err
	}
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return err
}

// ensureHourly runs the Hourly-dataset campaign once, attaching every
// aggregator Figures 3 and 5–9 need.
func (r *Runner) ensureHourly(ctx context.Context) (*hourlyResults, error) {
	if r.hourly != nil {
		return r.hourly, nil
	}
	w, err := r.freshWorld()
	if err != nil {
		return nil, err
	}
	defer r.release(w)
	res := &hourlyResults{
		avail:    scanner.NewAvailabilitySeries(w.Config.Stride),
		unusable: scanner.NewUnusableSeries(w.Config.Stride),
		quality:  scanner.NewQualityAggregator(),
		respAv:   scanner.NewResponderAvailability(),
		hardFail: impact.NewHardFail(),
		latency:  scanner.NewLatencyAggregator(),
	}
	st, storeOpts, err := r.openCampaignStore("hourly", w.Config.End, w.Config.Stride)
	if err != nil {
		return nil, err
	}
	opts := append([]scanner.Option{
		scanner.WithTargets(w.Targets...),
		scanner.WithWindow(w.Config.Start, w.Config.End),
		scanner.WithStride(w.Config.Stride),
	}, storeOpts...)
	camp, err := scanner.NewCampaign(&scanner.Client{Transport: w.Network}, w.Clock, opts...)
	if err != nil {
		return nil, closeStore(st, err)
	}
	if st != nil {
		st.SetCheckpointPayload(func() []byte { return []byte(camp.Stats().String()) })
	}
	n, err := camp.Run(ctx, res.avail, res.unusable, res.quality, res.respAv, res.hardFail, res.latency)
	if err = closeStore(st, err); err != nil {
		return nil, err
	}
	res.scans = n
	report.CampaignStats(r.Out, "Hourly campaign", camp.Stats())
	r.hourly = res
	return res, nil
}

func (r *Runner) runHourly(ctx context.Context, name string) error {
	res, err := r.ensureHourly(ctx)
	if err != nil {
		return err
	}
	switch name {
	case "fig3":
		report.Figure3(r.Out, res.avail, 28)
		report.AvailabilitySummary(r.Out, res.respAv)
	case "fig5":
		report.Figure5(r.Out, res.unusable)
	case "hardfail":
		report.HardFail(r.Out, res.hardFail.Results())
	case "latency":
		report.Latency(r.Out, res.latency)
	case "fig6", "fig7", "fig8", "fig9", "ondemand":
		// Figures 6–9 and the on-demand analysis render as one block
		// (they come from the same aggregator); emit it once per
		// runner even when several of them are requested.
		if !r.qualityDone {
			report.Quality(r.Out, res.quality)
			r.qualityDone = true
		}
	}
	return nil
}

// ensureAlexa runs the Figure 4 impact campaign.
func (r *Runner) ensureAlexa(ctx context.Context) (*alexaResults, error) {
	if r.alexa != nil {
		return r.alexa, nil
	}
	w, err := r.freshWorld()
	if err != nil {
		return nil, err
	}
	defer r.release(w)
	// The impact campaign always runs hourly regardless of the world's
	// stride: the named outage events last only a few hours, and
	// Figure 4's whole point is catching them. One weighted target per
	// responder keeps the hourly grid affordable.
	res := &alexaResults{impact: scanner.NewDomainImpact(time.Hour, 1)}
	st, storeOpts, err := r.openCampaignStore("alexa", w.Config.End, time.Hour)
	if err != nil {
		return nil, err
	}
	opts := append([]scanner.Option{
		scanner.WithTargets(w.AlexaTargets...),
		scanner.WithWindow(w.Config.Start, w.Config.End),
		scanner.WithStride(time.Hour),
	}, storeOpts...)
	camp, err := scanner.NewCampaign(&scanner.Client{Transport: w.Network}, w.Clock, opts...)
	if err != nil {
		return nil, closeStore(st, err)
	}
	if st != nil {
		st.SetCheckpointPayload(func() []byte { return []byte(camp.Stats().String()) })
	}
	n, err := camp.Run(ctx, res.impact)
	if err = closeStore(st, err); err != nil {
		return nil, err
	}
	res.scans = n
	report.CampaignStats(r.Out, "Alexa impact campaign", camp.Stats())
	r.alexa = res
	return res, nil
}

func (r *Runner) runFigure4(ctx context.Context) error {
	res, err := r.ensureAlexa(ctx)
	if err != nil {
		return err
	}
	var names []string
	for _, v := range netsim.PaperVantages() {
		names = append(names, v.Name)
	}
	sort.Strings(names)
	report.Figure4(r.Out, res.impact, names, 1000)
	return nil
}

// runConsistency runs the §5.4 CRL/OCSP study on its own population
// (world.BuildConsistency): the study probes none of the responder fleet,
// so it builds none.
func (r *Runner) runConsistency() error {
	// Table 1 and Figure 10 come from one study and render together;
	// emit the block once per runner.
	if r.consistencyDone {
		return nil
	}
	c, err := world.BuildConsistency(r.Config)
	if err != nil {
		return err
	}
	defer r.release(c)
	study := &consistency.Study{Network: c.Network, Vantage: netsim.PaperVantages()[1]}
	rep, err := study.Run(c.Config.Start.Add(6*24*time.Hour), c.Sources)
	if err != nil {
		return err
	}
	report.Table1(r.Out, rep)
	r.consistencyDone = true
	return nil
}

func (r *Runner) runTable2() error {
	h, err := browser.NewHarness(time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		return err
	}
	rows, err := h.RunTable2(browser.Table2Behaviors())
	if err != nil {
		return err
	}
	report.Table2(r.Out, rows)
	return nil
}

func (r *Runner) runTable3() error {
	results, err := webserver.Table3()
	if err != nil {
		return err
	}
	report.Table3(r.Out, results)
	return nil
}

// runVulnWindow runs the §3 window-of-vulnerability comparison, sampling
// response validities from the built world's fleet.
func (r *Runner) runVulnWindow() error {
	w, err := r.World()
	if err != nil {
		return err
	}
	results := vulnwindow.Simulate(vulnwindow.Config{
		Seed:                r.Config.Seed,
		ResponderValidities: w.ResponderValidities(),
	})
	report.VulnWindows(r.Out, results)
	return nil
}

func (r *Runner) runCDN(ctx context.Context) error {
	w, err := r.freshWorld()
	if err != nil {
		return err
	}
	defer r.release(w)
	client := &scanner.Client{Transport: w.Network}
	cdn := census.NewCDNCache(client, w.Clock, netsim.PaperVantages()[1])
	// Replay an afternoon of CDN TLS traffic over the Alexa targets,
	// popularity-weighted: the cache should end up touching only the
	// handful of responders behind the popular domains.
	targets := w.AlexaTargets
	if len(targets) > 20 {
		targets = targets[:20]
	}
	for round := 0; round < 200; round++ {
		for _, tgt := range targets {
			cdn.Lookup(ctx, tgt)
		}
		w.Clock.Advance(time.Minute)
	}
	report.CDNReport(r.Out, cdn.Stats())
	return nil
}
