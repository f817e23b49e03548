package scanner

import (
	"context"
	"time"

	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/par"
)

// Run executes the campaign over its configured window, feeding every
// observation to each aggregator, and returns the number of lookups
// performed. Cancelling ctx stops the campaign between (and within)
// rounds; the partial lookup count and the context error are returned.
//
// Each round sets the virtual clock to the round's time, scans the round's
// (vantage, target) pairs on up to c.workers goroutines, folds the round
// into every aggregator in job order (vantage-major, target-minor) on the
// caller's goroutine, and then hands the whole round to the sink. The clock
// cannot advance while a round's scans are in flight, because responders
// read it to produce responses, so every round ends in a barrier anyway;
// folding after that barrier keeps the aggregators single-threaded and
// their input order independent of the worker count. Folding costs a few
// percent of a lookup's CPU (DESIGN.md §6), which is why overlapping it
// with the next round's scan did not pay on the hosts measured.
func (c *Campaign) Run(ctx context.Context, aggs ...Aggregator) (int, error) {
	retry := c.campaignRetry()
	probes := c.newProbes()
	counters := newObsCounters(c.reg)
	roundsCtr := c.reg.Counter("campaign_rounds_total")

	total := 0
	fold := func(o Observation) {
		// Canceled lookups are not measurements; they never reach
		// aggregators.
		if o.Class == ClassCanceled {
			return
		}
		counters.record(o)
		total++
		for _, a := range aggs {
			a.Add(o)
		}
	}
	if c.replay != nil {
		// Resume: replay the persisted prefix into the aggregators before
		// scanning. The replay's declared round count restores the round
		// counter: a round may carry no observations, so the count cannot
		// be derived from the stream.
		roundsCtr.Add(c.replayRounds)
		err := c.replay(func(o Observation) error {
			fold(o)
			return nil
		})
		if err != nil {
			return total, err
		}
	}
	var pairs []scanPair
	var results []Observation
	for at := c.start; at.Before(c.end); at = at.Add(c.stride) {
		if err := ctx.Err(); err != nil {
			return total, err
		}
		c.clk.Set(at)
		pairs = c.roundJobs(at, probes, pairs)
		if cap(results) < len(pairs) {
			results = make([]Observation, len(pairs))
		}
		results = results[:len(pairs)]

		stopRound := c.reg.Timer("campaign_round_seconds")
		par.For(len(pairs), c.workers, func(i int) {
			results[i] = c.client.scanProbe(ctx, retry, pairs[i].vantage, at, pairs[i].probe)
		})
		roundsCtr.Inc()
		stopRound()
		for i := range results {
			fold(results[i])
		}
		if c.sink != nil && ctx.Err() == nil {
			// Persist after folding, so a sink that snapshots the
			// campaign's counters (a checkpoint payload) sees this round
			// in them. A round cut short by a cancellation is folded
			// (its measured part) but not persisted: a resume rescans it
			// whole. Empty rounds (every target expired) are persisted
			// too, as round markers, so resume accounting stays exact.
			if err := c.sink.AppendRound(at, measuredOnly(results)); err != nil {
				return total, err
			}
		}
	}
	return total, ctx.Err()
}

// measuredOnly filters canceled lookups out of a round — they are not
// measurements and never reach aggregators, so they are not persisted
// either. The common all-measured case returns obs unchanged, without a
// copy.
func measuredOnly(obs []Observation) []Observation {
	for i := range obs {
		if obs[i].Class == ClassCanceled {
			out := make([]Observation, 0, len(obs)-1)
			for j := range obs {
				if obs[j].Class != ClassCanceled {
					out = append(out, obs[j])
				}
			}
			return out
		}
	}
	return obs
}

// campaignRetry returns the retry policy with virtual-time sleeping
// installed: campaign backoff advances the retry's virtual timestamp, it
// never wall-sleeps.
func (c *Campaign) campaignRetry() RetryPolicy {
	p := c.retry
	if p.Sleep == nil {
		p.Sleep = VirtualSleep
	}
	return p
}

// newProbes builds one probe per target. A run builds them when it
// starts, so the work stays out of campaign construction and is done once
// per run rather than once per lookup. The probes, with the last body
// each target returned, are dropped when the run returns.
func (c *Campaign) newProbes() []*probe {
	probes := make([]*probe, len(c.targets))
	for i, tgt := range c.targets {
		probes[i] = c.client.newProbe(tgt)
	}
	return probes
}

// roundJobs builds the (vantage, target) pairs probed at virtual time at,
// dropping expired certificates (§5.1, footnote 9).
func (c *Campaign) roundJobs(at time.Time, probes []*probe, pairs []scanPair) []scanPair {
	pairs = pairs[:0]
	for _, v := range c.vantages {
		for _, p := range probes {
			if !p.tgt.Expiry.IsZero() && at.After(p.tgt.Expiry) {
				continue
			}
			pairs = append(pairs, scanPair{vantage: v, probe: p})
		}
	}
	return pairs
}

type scanPair struct {
	vantage netsim.Vantage
	probe   *probe
}

// obsCounters caches the per-campaign metric handles touched on every
// observation, keeping the hot path free of registry lookups.
type obsCounters struct {
	scans    *metrics.Counter
	retries  *metrics.Counter
	salvaged *metrics.Counter
	byClass  map[FailureClass]*metrics.Counter
}

func newObsCounters(reg *metrics.Registry) *obsCounters {
	oc := &obsCounters{
		scans:    reg.Counter("campaign_scans_total"),
		retries:  reg.Counter("campaign_retries_total"),
		salvaged: reg.Counter("campaign_retry_salvaged_total"),
		byClass:  make(map[FailureClass]*metrics.Counter, len(classNames)),
	}
	for class, name := range classNames {
		oc.byClass[class] = reg.Counter("campaign_class_" + name + "_total")
	}
	return oc
}

func (oc *obsCounters) record(o Observation) {
	oc.scans.Inc()
	if ctr := oc.byClass[o.Class]; ctr != nil {
		ctr.Inc()
	}
	if o.Attempts > 1 {
		oc.retries.Add(int64(o.Attempts - 1))
	}
	if o.Salvaged {
		oc.salvaged.Inc()
	}
}
