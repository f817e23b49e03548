// Package stats provides the small statistical toolkit the reproduction's
// figures are built from: empirical CDFs (with support for +Inf values,
// needed because blank nextUpdate values make validity periods infinite),
// means, quantiles, rank binning (Figures 2 and 11 bin the Alexa Top-1M
// into 10,000-domain bins), and time-bucketed rate series (Figures 3–5,
// 12).
package stats

import (
	"math"
	"sort"
	"time"
)

// CDF is an exact empirical cumulative distribution over float64 samples.
//
// It is a multiset: each distinct value is kept once, with its count, so
// its memory grows with the number of distinct values, not with the number
// of samples. Every query is an order statistic or a count, which the
// multiset answers exactly. A campaign's lookup latencies are whole
// microseconds in a band of a few tens of milliseconds: ~105 distinct
// values over millions of lookups. Values order as sort.Float64s orders
// them: NaNs first, then -Inf up to +Inf. The zero value is empty and
// ready to use.
type CDF struct {
	counts map[float64]int // samples per distinct value, NaN excepted
	nan    int             // NaN samples: NaN cannot be found as a map key
	n      int
	stale  bool      // samples were added since vals and cum were built
	vals   []float64 // distinct values, in sort.Float64s order
	cum    []int     // cum[i]: samples at or before vals[i]
}

// Add inserts a sample. math.Inf(1) is a legal sample.
func (c *CDF) Add(v float64) {
	c.n++
	c.stale = true
	if math.IsNaN(v) {
		c.nan++
		return
	}
	if c.counts == nil {
		c.counts = make(map[float64]int)
	}
	c.counts[v]++
}

// N returns the sample count.
func (c *CDF) N() int { return c.n }

// sorted builds the distinct values in order and their cumulative counts,
// if samples were added since they were last built.
func (c *CDF) sorted() {
	if !c.stale {
		return
	}
	c.vals = c.vals[:0]
	if c.nan > 0 {
		c.vals = append(c.vals, math.NaN())
	}
	for v := range c.counts {
		c.vals = append(c.vals, v)
	}
	sort.Float64s(c.vals)
	c.cum = c.cum[:0]
	total := 0
	for _, v := range c.vals {
		if math.IsNaN(v) {
			total += c.nan
		} else {
			total += c.counts[v]
		}
		c.cum = append(c.cum, total)
	}
	c.stale = false
}

// below returns how many samples sort before t — the count
// sort.SearchFloat64s(sorted samples, t) returns.
func (c *CDF) below(t float64) int {
	c.sorted()
	i := sort.Search(len(c.vals), func(i int) bool { return c.vals[i] >= t })
	if i == 0 {
		return 0
	}
	return c.cum[i-1]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method. It panics on an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	n := c.N()
	if n == 0 {
		panic("stats: quantile of empty CDF")
	}
	c.sorted()
	if q <= 0 {
		return c.vals[0]
	}
	if q >= 1 {
		return c.vals[len(c.vals)-1]
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.vals[sort.Search(len(c.cum), func(i int) bool { return c.cum[i] > idx })]
}

// FractionAtOrBelow returns the empirical CDF evaluated at x.
func (c *CDF) FractionAtOrBelow(x float64) float64 {
	n := c.N()
	if n == 0 {
		return 0
	}
	return float64(c.below(math.Nextafter(x, math.Inf(1)))) / float64(n)
}

// CountAbove returns how many samples strictly exceed x (Infs included).
func (c *CDF) CountAbove(x float64) int {
	return c.N() - c.below(math.Nextafter(x, math.Inf(1)))
}

// CountInf returns the number of +Inf samples.
func (c *CDF) CountInf() int { return c.counts[math.Inf(1)] }

// Max returns the largest finite sample, or 0 if none.
func (c *CDF) Max() float64 {
	max := 0.0
	for v := range c.counts {
		if !math.IsInf(v, 1) && v > max {
			max = v
		}
	}
	return max
}

// Counter is a running mean.
type Counter struct {
	Sum float64
	N   int
}

// Add accumulates one sample.
func (a *Counter) Add(v float64) {
	a.Sum += v
	a.N++
}

// Mean returns Sum/N (0 when empty).
func (a *Counter) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// RankBins accumulates a boolean property over ranked items (Alexa ranks)
// into fixed-width bins: Figures 2 and 11 use 10,000-domain bins over the
// Top-1M.
type RankBins struct {
	Width int
	hit   map[int]int
	total map[int]int
}

// NewRankBins creates bins of the given width.
func NewRankBins(width int) *RankBins {
	return &RankBins{Width: width, hit: make(map[int]int), total: make(map[int]int)}
}

// Add records one item at the given rank (0-based) with a boolean outcome.
func (b *RankBins) Add(rank int, ok bool) {
	bin := rank / b.Width
	b.total[bin]++
	if ok {
		b.hit[bin]++
	}
}

// BinRate is one bin's aggregated rate.
type BinRate struct {
	// Start is the first rank in the bin.
	Start int
	// Rate is hits/total in [0, 1].
	Rate float64
	// Total is the number of items observed in the bin.
	Total int
}

// Rates returns per-bin rates, ordered by rank.
func (b *RankBins) Rates() []BinRate {
	bins := make([]int, 0, len(b.total))
	for bin := range b.total {
		bins = append(bins, bin)
	}
	sort.Ints(bins)
	out := make([]BinRate, 0, len(bins))
	for _, bin := range bins {
		total := b.total[bin]
		out = append(out, BinRate{
			Start: bin * b.Width,
			Rate:  float64(b.hit[bin]) / float64(total),
			Total: total,
		})
	}
	return out
}

// TimeSeries counts labelled events in fixed time buckets.
type TimeSeries struct {
	Bucket time.Duration
	counts map[time.Time]map[string]int
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	return &TimeSeries{Bucket: bucket, counts: make(map[time.Time]map[string]int)}
}

// Add counts one event with the given label at time at.
func (s *TimeSeries) Add(at time.Time, label string) {
	s.AddN(at, label, 1)
}

// AddN counts n events.
func (s *TimeSeries) AddN(at time.Time, label string, n int) {
	b := at.Truncate(s.Bucket)
	m := s.counts[b]
	if m == nil {
		m = make(map[string]int)
		s.counts[b] = m
	}
	m[label] += n
}

// Buckets returns the bucket start times in order.
func (s *TimeSeries) Buckets() []time.Time {
	out := make([]time.Time, 0, len(s.counts))
	for b := range s.counts {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

// Count returns the count for (bucket, label).
func (s *TimeSeries) Count(bucket time.Time, label string) int {
	return s.counts[bucket.Truncate(s.Bucket)][label]
}

// Rate returns num/(num+denomRest) style fractions: the count of numLabel
// divided by the count of totalLabel in the bucket (0 if empty).
func (s *TimeSeries) Rate(bucket time.Time, numLabel, totalLabel string) float64 {
	m := s.counts[bucket.Truncate(s.Bucket)]
	if m == nil || m[totalLabel] == 0 {
		return 0
	}
	return float64(m[numLabel]) / float64(m[totalLabel])
}
