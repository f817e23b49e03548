package scanner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
)

// Aggregator consumes observations as a campaign produces them, so a full
// multi-month campaign streams through fixed memory regardless of how many
// figures are being computed from it.
type Aggregator interface {
	Add(Observation)
}

// ShardedAggregator is an Aggregator that can be split into shards and
// merged back. Nothing in this module implements or uses it — Run folds
// every observation on its own goroutine — and the declaration stays only
// because the benchmark harness in bench/ type-asserts it.
//
//lint:allow unused bench/campaign.go type-asserts it; bench/ is a module of its own, which this analyzer does not load
type ShardedAggregator interface {
	Aggregator
	// NewShard returns an empty aggregator of the same kind.
	NewShard() Aggregator
	// Merge folds a shard previously produced by NewShard into the
	// receiver.
	Merge(shard Aggregator)
}

// RoundSink receives each completed round's measured observations for
// durable persistence — internal/store implements it. Run calls
// AppendRound on its own goroutine, one call per round in round order,
// after the round's scans have all finished and the round has been
// folded into the aggregators, so the campaign's counters (Stats)
// already include it. Canceled lookups are filtered out first, so the
// persisted stream is exactly the stream the aggregators saw. The obs
// slice is only valid for the duration of the call: Run reuses it for
// the next round, so implementations must copy (or serialize) what they
// keep and must never mutate it.
type RoundSink interface {
	AppendRound(at time.Time, obs []Observation) error
}

// ReplaySource streams previously persisted observations in campaign
// order (round-major). store.Reader.Scan satisfies it.
type ReplaySource func(fn func(Observation) error) error

// Campaign drives a repeated scan of a target set from multiple vantage
// points over a span of virtual time — the engine behind the paper's
// Hourly dataset (536 responders × ≤50 certificates × 6 vantages, hourly,
// April 25 to September 4, 2018). Build one with NewCampaign; the zero
// value is not usable.
type Campaign struct {
	client       *Client
	clk          *clock.Simulated
	vantages     []netsim.Vantage
	targets      []Target
	start        time.Time
	end          time.Time
	stride       time.Duration
	workers      int
	retry        RetryPolicy
	reg          *metrics.Registry
	sink         RoundSink
	replay       ReplaySource
	replayRounds int64
}

// Option configures a Campaign; invalid values are reported by NewCampaign
// rather than surfacing later inside Run.
type Option func(*Campaign) error

// WithVantages sets the measurement vantage points (default: the six
// paper vantages).
//
//lint:allow unused tests narrow the vantages to stay fast
func WithVantages(vs ...netsim.Vantage) Option {
	return func(c *Campaign) error {
		if len(vs) == 0 {
			return errors.New("scanner: WithVantages needs at least one vantage")
		}
		c.vantages = vs
		return nil
	}
}

// WithTargets sets the (responder, certificate) pairs to probe.
func WithTargets(ts ...Target) Option {
	return func(c *Campaign) error {
		c.targets = ts
		return nil
	}
}

// WithWindow bounds the campaign in virtual time (end exclusive).
func WithWindow(start, end time.Time) Option {
	return func(c *Campaign) error {
		if end.Before(start) {
			return fmt.Errorf("scanner: campaign end %v precedes start %v", end, start)
		}
		c.start, c.end = start, end
		return nil
	}
}

// WithStride sets the inter-round interval (default: hourly, matching the
// paper). Larger strides subsample the same virtual span for quick runs.
func WithStride(d time.Duration) Option {
	return func(c *Campaign) error {
		if d <= 0 {
			return fmt.Errorf("scanner: stride must be positive, got %v", d)
		}
		c.stride = d
		return nil
	}
}

// WithWorkers sets how many goroutines scan each round (default:
// GOMAXPROCS). With 1, every lookup runs on Run's goroutine. The worker
// count never changes what is persisted or aggregated.
//
//lint:allow unused tests pin byte-identical output across worker counts with it
func WithWorkers(n int) Option {
	return func(c *Campaign) error {
		if n < 0 {
			return fmt.Errorf("scanner: workers must be >= 0, got %d", n)
		}
		if n > 0 {
			c.workers = n
		}
		return nil
	}
}

// WithRetryPolicy sets the retry policy applied to every lookup. Campaigns
// run in virtual time, so a nil policy Sleep is replaced by VirtualSleep:
// backoff advances the retry's virtual timestamp instead of wall-sleeping.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Campaign) error {
		if p.Attempts < 0 {
			return fmt.Errorf("scanner: retry attempts must be >= 0, got %d", p.Attempts)
		}
		if p.Jitter < 0 || p.Jitter > 1 {
			return fmt.Errorf("scanner: retry jitter must be in [0, 1], got %v", p.Jitter)
		}
		c.retry = p
		return nil
	}
}

// WithStore attaches a durable per-round sink. Run appends each round to
// it on Run's own goroutine, after the round's scans and after the round
// is folded into the aggregators, so a slow disk slows the campaign
// instead of growing a backlog and a checkpoint payload sees the round in
// the campaign's counters. A sink error stops the campaign at the failing
// round, which is then aggregated but not persisted, and is returned from
// Run. A round in flight when a cancellation arrives is not persisted (a
// canceled round is not a complete measurement).
func WithStore(sink RoundSink) Option {
	return func(c *Campaign) error {
		if sink == nil {
			return errors.New("scanner: WithStore needs a non-nil sink")
		}
		c.sink = sink
		return nil
	}
}

// WithReplay streams previously persisted observations into the
// campaign's aggregators, on Run's goroutine and in persisted order,
// before any scanning starts — the resume path. Replayed observations
// also restore the campaign's scan/class counters, so a resumed
// campaign's Stats and aggregates match an uninterrupted run's. rounds is
// how many rounds the source covers (store.Checkpoint.Rounds); it
// restores the round counter, which cannot be derived from the stream
// because a round may carry no observations.
func WithReplay(src ReplaySource, rounds int64) Option {
	return func(c *Campaign) error {
		if src == nil {
			return errors.New("scanner: WithReplay needs a non-nil source")
		}
		if rounds < 0 {
			return fmt.Errorf("scanner: WithReplay rounds must be >= 0, got %d", rounds)
		}
		c.replay = src
		c.replayRounds = rounds
		return nil
	}
}

// WithMetrics routes the campaign's instrumentation into an existing
// registry instead of a private one.
//
//lint:allow unused kept for its planned caller: core passing the runner's registry to every campaign, so campaign timers reach the debug surface
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Campaign) error {
		if reg == nil {
			return errors.New("scanner: WithMetrics needs a non-nil registry")
		}
		c.reg = reg
		return nil
	}
}

// NewCampaign builds a validated campaign. The client performs individual
// lookups; the clock is advanced across rounds (campaigns run in virtual
// time). Option validation happens here, up front — Run never fails on
// configuration.
func NewCampaign(client *Client, clk *clock.Simulated, opts ...Option) (*Campaign, error) {
	if client == nil {
		return nil, errors.New("scanner: campaign needs a client")
	}
	if clk == nil {
		return nil, errors.New("scanner: campaign needs a clock")
	}
	c := &Campaign{
		client:  client,
		clk:     clk,
		stride:  time.Hour,
		workers: runtime.GOMAXPROCS(0),
		reg:     metrics.NewRegistry(),
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if len(c.vantages) == 0 {
		c.vantages = netsim.PaperVantages()
	}
	return c, nil
}

// Stats summarizes a campaign's instrumentation. Scans counts lookups
// (first attempts only); Retries and Salvaged report the retry machinery
// separately, so paper-facing availability figures remain single-attempt.
type Stats struct {
	// Scans is the number of lookups performed (first attempts).
	Scans int64
	// Retries is the total number of extra attempts issued.
	Retries int64
	// Salvaged counts lookups whose first attempt failed with a
	// transient class but which a retry turned into ClassOK — the
	// "retry salvage" report.
	Salvaged int64
	// Rounds is the number of campaign rounds executed.
	Rounds int64
	// ByClass counts first-attempt outcomes per failure class name.
	ByClass map[string]int64
	// PeakQueueDepth is always 0: the campaign engine has no job queue.
	// The field stays because the benchmark harness in bench/ reads it.
	PeakQueueDepth int64
	// RoundLatency is the wall-clock round duration histogram
	// (nanoseconds).
	RoundLatency metrics.Hist
}

// String renders the stats as one summary line plus a class breakdown.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scans=%d rounds=%d retries=%d salvaged=%d round-latency-mean=%.3fs",
		s.Scans, s.Rounds, s.Retries, s.Salvaged, s.RoundLatency.Mean()/1e9)
	for _, name := range sortedClassNames(s.ByClass) {
		fmt.Fprintf(&b, "\n  class %-18s %d", name, s.ByClass[name])
	}
	return b.String()
}

func sortedClassNames(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	// Small, stable: insertion sort keeps this dependency-free.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Stats snapshots the campaign's metrics. Valid during and after Run.
func (c *Campaign) Stats() Stats {
	snap := c.reg.Snapshot()
	st := Stats{
		Scans:        snap.Counters["campaign_scans_total"],
		Retries:      snap.Counters["campaign_retries_total"],
		Salvaged:     snap.Counters["campaign_retry_salvaged_total"],
		Rounds:       snap.Counters["campaign_rounds_total"],
		ByClass:      make(map[string]int64),
		RoundLatency: snap.Histograms["campaign_round_seconds"],
	}
	for name, v := range snap.Counters {
		if cls, ok := strings.CutPrefix(name, "campaign_class_"); ok {
			st.ByClass[strings.TrimSuffix(cls, "_total")] = v
		}
	}
	return st
}
