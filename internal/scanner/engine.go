package scanner

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/par"
)

// aggQueueDepth bounds how many completed rounds may sit between the scan
// pool and the aggregation stage. Together with the job-queue bound this
// keeps a multi-month campaign in fixed memory: when aggregation falls
// behind, the dispatcher blocks instead of buffering the backlog.
const aggQueueDepth = 2

// Run executes the campaign over its configured window, feeding every
// observation to each aggregator, and returns the number of lookups
// performed. Cancelling ctx stops the campaign between (and within)
// rounds; the partial lookup count and the context error are returned.
//
// The pipelined engine keeps one persistent worker pool across all rounds.
// The only barrier is the virtual-clock ordering constraint — the clock
// cannot advance to round N+1 while round N scans are in flight, because
// responders read it to produce responses — but aggregation of round N
// overlaps with the scanning of round N+1, and is itself sharded across
// aggregation workers by responder.
func (c *Campaign) Run(ctx context.Context, aggs ...Aggregator) (int, error) {
	if c.barrier {
		return c.runBarrier(ctx, c.start, c.end, aggs)
	}
	return c.runPipelined(ctx, c.start, c.end, aggs)
}

// RunOnce performs a single round at time at (the Alexa1M one-shot scan of
// §5.1) and returns the observations in deterministic (vantage-major,
// target-minor) order. It routes through the same engine as Run, so the
// worker pool, retry policy, and expired-certificate filtering behave
// identically to a full campaign round.
func (c *Campaign) RunOnce(ctx context.Context, at time.Time) ([]Observation, error) {
	col := &obsCollector{}
	run := c.runPipelined
	if c.barrier {
		run = c.runBarrier
	}
	if _, err := run(ctx, at, at.Add(time.Nanosecond), []Aggregator{col}); err != nil {
		return col.obs, err
	}
	return col.obs, nil
}

// obsCollector records observations in arrival order. It deliberately does
// NOT implement ShardedAggregator: the router feeds it sequentially, so
// the collected order matches the deterministic job order.
type obsCollector struct {
	obs []Observation
}

func (o *obsCollector) Add(ob Observation) { o.obs = append(o.obs, ob) }

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

type scanJob struct {
	slot  int
	at    time.Time
	pair  scanPair
	block *roundBlock
}

// roundBlock is one round's ordered result buffer. pending counts
// outstanding scans; the worker that completes the last one signals the
// dispatcher.
type roundBlock struct {
	at      time.Time
	obs     []Observation
	pending atomic.Int64
}

// sinkQueueDepth bounds how many completed rounds may wait for the store
// writer. Like aggQueueDepth, it is backpressure, not buffering: a slow
// disk blocks the dispatcher instead of growing a backlog.
const sinkQueueDepth = 2

// sinkWriter is the dedicated store-writer goroutine: it drains completed
// rounds off a bounded queue and appends each to the RoundSink, keeping
// disk latency off the scan path. The first sink error is sticky — later
// rounds are drained and dropped so the dispatcher never deadlocks, and
// the error surfaces from Run.
type sinkWriter struct {
	sink   RoundSink
	blocks chan *roundBlock
	done   chan struct{}
	err    atomic.Pointer[error]
}

func startSinkWriter(sink RoundSink) *sinkWriter {
	sw := &sinkWriter{
		sink:   sink,
		blocks: make(chan *roundBlock, sinkQueueDepth),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(sw.done)
		for b := range sw.blocks {
			if sw.err.Load() != nil {
				continue
			}
			if err := sw.sink.AppendRound(b.at, measuredOnly(b.obs)); err != nil {
				sw.err.Store(&err)
			}
		}
	}()
	return sw
}

// failure returns the first sink error, if any.
func (sw *sinkWriter) failure() error {
	if p := sw.err.Load(); p != nil {
		return *p
	}
	return nil
}

// measuredOnly filters canceled lookups out of a round — they are not
// measurements and never reach aggregators, so they are not persisted
// either. The common all-measured case returns obs unchanged; the block
// is shared with the aggregation stage and must not be mutated.
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

func (c *Campaign) runPipelined(ctx context.Context, start, end time.Time, aggs []Aggregator) (int, error) {
	retry := c.campaignRetry()
	probes := c.newProbes()

	jobs := make(chan scanJob, c.workers*2)
	scanDone := make(chan *roundBlock, 1)
	var wg sync.WaitGroup
	for i := 0; i < c.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				j.block.obs[j.slot] = c.client.scanProbe(ctx, retry, j.pair.vantage, j.at, j.pair.probe)
				if j.block.pending.Add(-1) == 0 {
					scanDone <- j.block
				}
			}
		}()
	}

	pipe := newAggPipeline(aggs, c.shards, c.reg)

	queuePeak := c.reg.Gauge("campaign_queue_depth_peak")
	roundsCtr := c.reg.Counter("campaign_rounds_total")

	var sw *sinkWriter
	if c.sink != nil {
		sw = startSinkWriter(c.sink)
	}

	var runErr error
	if c.replay != nil {
		// Resume: stream the persisted prefix through the aggregation
		// pipeline before scanning. It uses the same shard router as
		// live rounds, so per-responder order-sensitive state is exact.
		runErr = c.feedReplay(pipe, roundsCtr)
	}

	var pairs []scanPair
	if runErr == nil {
		for at := start; at.Before(end); at = at.Add(c.stride) {
			if err := ctx.Err(); err != nil {
				runErr = err
				break
			}
			if sw != nil {
				if err := sw.failure(); err != nil {
					runErr = err
					break
				}
			}
			c.clk.Set(at)
			pairs = c.roundJobs(at, probes, pairs)
			if len(pairs) == 0 {
				roundsCtr.Inc()
				if sw != nil {
					// Empty rounds (every target expired) persist as a
					// round marker so resume accounting stays exact.
					sw.blocks <- &roundBlock{at: at}
				}
				continue
			}
			stopRound := c.reg.Timer("campaign_round_seconds")
			block := &roundBlock{at: at, obs: make([]Observation, len(pairs))}
			block.pending.Store(int64(len(pairs)))
			for i, p := range pairs {
				jobs <- scanJob{slot: i, at: at, pair: p, block: block}
				queuePeak.SetMax(int64(len(jobs)))
			}
			block = <-scanDone // the round's own block: only one round scans at a time
			roundsCtr.Inc()
			stopRound()
			if sw != nil && ctx.Err() == nil {
				// Durable write: this send blocks when the store is
				// sinkQueueDepth rounds behind. Rounds cut short by a
				// cancellation are aggregated (their measured part) but
				// not persisted — a resume rescans them whole.
				sw.blocks <- block
			}
			// Hand the completed round to the aggregation stage; this send
			// blocks when aggregation is aggQueueDepth rounds behind.
			pipe.blocks <- block
		}
	}

	close(jobs)
	wg.Wait()
	if sw != nil {
		close(sw.blocks)
		<-sw.done
	}
	close(pipe.blocks)
	<-pipe.done
	if runErr == nil {
		runErr = ctx.Err() // a cancel during the final round still surfaces
	}
	if runErr == nil && sw != nil {
		runErr = sw.failure()
	}
	return pipe.total, runErr
}

// replayBatch is how many replayed observations are grouped into one
// pipeline block: big enough to amortize channel hops, small enough that
// replay memory stays bounded (aggQueueDepth+1 batches in flight).
const replayBatch = 1024

// feedReplay pushes every persisted observation into the aggregation
// pipeline in bounded batches and restores the round counter from the
// replay's declared round count (rounds may be empty of observations, so
// the count cannot be derived from the stream). The pipeline's router
// restores the scan/class/retry counters exactly as it does for live
// rounds.
func (c *Campaign) feedReplay(pipe *aggPipeline, roundsCtr *metrics.Counter) error {
	roundsCtr.Add(c.replayRounds)
	batch := make([]Observation, 0, replayBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		pipe.blocks <- &roundBlock{obs: batch}
		batch = make([]Observation, 0, replayBatch)
	}
	err := c.replay(func(o Observation) error {
		batch = append(batch, o)
		if len(batch) == replayBatch {
			flush()
		}
		return nil
	})
	flush()
	return err
}

// runBarrier is the legacy engine the seed shipped: per-round goroutine
// fan-out behind a full barrier, then inline single-threaded aggregation.
// It is kept as the benchmark baseline and a debugging fallback.
func (c *Campaign) runBarrier(ctx context.Context, start, end time.Time, aggs []Aggregator) (int, error) {
	retry := c.campaignRetry()
	probes := c.newProbes()
	counters := newObsCounters(c.reg)
	roundsCtr := c.reg.Counter("campaign_rounds_total")

	total := 0
	if c.replay != nil {
		// Resume: replay the persisted prefix straight into the
		// aggregators, mirroring the live path below (canceled lookups
		// are never persisted, but an arbitrary ReplaySource gets the
		// same filtering the live path applies).
		roundsCtr.Add(c.replayRounds)
		err := c.replay(func(o Observation) error {
			if o.Class == ClassCanceled {
				return nil
			}
			counters.record(o)
			total++
			for _, a := range aggs {
				a.Add(o)
			}
			return nil
		})
		if err != nil {
			return total, err
		}
	}
	var pairs []scanPair
	var results []Observation
	for at := start; at.Before(end); at = at.Add(c.stride) {
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
		if c.sink != nil && ctx.Err() == nil {
			// The barrier engine has no writer goroutine; the sink is
			// fed inline between rounds, same filtering as pipelined.
			if err := c.sink.AppendRound(at, measuredOnly(results)); err != nil {
				return total, err
			}
		}
		for i := range results {
			if results[i].Class == ClassCanceled {
				continue
			}
			counters.record(results[i])
			total++
			for _, a := range aggs {
				a.Add(results[i])
			}
		}
	}
	return total, ctx.Err()
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

// aggPipeline is the aggregation stage: a single router goroutine that
// consumes completed rounds in order, feeds non-shardable aggregators
// sequentially (preserving the exact observation order the legacy engine
// produced), and fans shardable aggregators out across shard workers keyed
// by responder.
type aggPipeline struct {
	blocks chan *roundBlock
	done   chan struct{}
	total  int // written by the router before closing done
}

func newAggPipeline(aggs []Aggregator, shards int, reg *metrics.Registry) *aggPipeline {
	var seq []Aggregator
	var sharded []ShardedAggregator
	for _, a := range aggs {
		if sa, ok := a.(ShardedAggregator); ok && shards > 1 {
			sharded = append(sharded, sa)
		} else {
			seq = append(seq, a)
		}
	}

	p := &aggPipeline{
		blocks: make(chan *roundBlock, aggQueueDepth),
		done:   make(chan struct{}),
	}

	// One goroutine and one shard per aggregation worker; shardAggs[s][j]
	// is shard s of sharded aggregator j.
	shardChs := make([]chan []Observation, shards)
	shardAggs := make([][]Aggregator, shards)
	var swg sync.WaitGroup
	if len(sharded) > 0 {
		for s := range shardChs {
			shardChs[s] = make(chan []Observation, aggQueueDepth)
			shardAggs[s] = make([]Aggregator, len(sharded))
			for j, sa := range sharded {
				shardAggs[s][j] = sa.NewShard()
			}
			swg.Add(1)
			go func(s int) {
				defer swg.Done()
				for batch := range shardChs[s] {
					for i := range batch {
						for _, sh := range shardAggs[s] {
							sh.Add(batch[i])
						}
					}
				}
			}(s)
		}
	}

	counters := newObsCounters(reg)
	go func() {
		defer close(p.done)
		batches := make([][]Observation, shards)
		for block := range p.blocks {
			for i := range block.obs {
				o := block.obs[i]
				if o.Class == ClassCanceled {
					// Canceled lookups are not measurements; they
					// never reach aggregators.
					continue
				}
				counters.record(o)
				p.total++
				for _, a := range seq {
					a.Add(o)
				}
				if len(sharded) > 0 {
					s := shardOf(o.Responder, shards)
					batches[s] = append(batches[s], o)
				}
			}
			for s := range batches {
				if len(batches[s]) > 0 {
					shardChs[s] <- batches[s]
					batches[s] = nil
				}
			}
		}
		if len(sharded) > 0 {
			for _, ch := range shardChs {
				close(ch)
			}
			swg.Wait()
			// Deterministic merge order: shard 0..S-1 for each
			// aggregator, so identical campaigns produce identical
			// aggregates.
			for j, sa := range sharded {
				for s := 0; s < shards; s++ {
					sa.Merge(shardAggs[s][j])
				}
			}
		}
	}()
	return p
}

// shardOf routes a responder to a stable aggregation shard. All of a
// responder's observations land on one shard, preserving per-responder
// observation order — the ShardedAggregator contract.
func shardOf(responder string, shards int) int {
	return int(hashx.Sum64(responder) % uint64(shards))
}
