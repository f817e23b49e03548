// Package stats provides the small statistical toolkit the reproduction's
// figures are built from: empirical CDFs (with support for +Inf values,
// needed because blank nextUpdate values make validity periods infinite),
// means, quantiles, rank binning (Figures 2 and 11 bin the Alexa Top-1M
// into 10,000-domain bins), and time-bucketed rate series (Figures 3–5,
// 12).
package stats

import (
	"math"
	"slices"
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
//
// Each bucket is a row of plain counters, one per label, in one flat
// slice: a campaign adds a bucket per round to each of its series, and a
// row costs 8 B per label where a map per bucket cost ~300 B. Rows are
// kept in bucket order. Campaign events arrive in time order, so a new
// bucket is appended; one that arrives out of order is inserted. A bucket
// is identified by its instant, whatever the location of the times that
// name it.
type TimeSeries struct {
	Bucket time.Duration
	labels []string    // column j counts labels[j]; in first-use order
	starts []time.Time // bucket starts, ascending
	counts []int       // counts[i*len(labels)+j]: bucket i, label j
}

// NewTimeSeries creates a series with the given bucket width.
func NewTimeSeries(bucket time.Duration) *TimeSeries {
	return &TimeSeries{Bucket: bucket}
}

// Add counts one event with the given label at time at.
func (s *TimeSeries) Add(at time.Time, label string) {
	s.AddN(at, label, 1)
}

// AddN counts n events. n may be 0: the bucket and the label still exist
// afterwards.
func (s *TimeSeries) AddN(at time.Time, label string, n int) {
	j := s.column(label)
	b := at.Truncate(s.Bucket)
	i, ok := s.find(b)
	if !ok {
		k := len(s.labels)
		s.starts = slices.Insert(s.starts, i, b)
		s.counts = slices.Insert(s.counts, i*k, make([]int, k)...)
	}
	s.counts[i*len(s.labels)+j] += n
}

// column returns label's column, widening every row on the label's first
// use. A series has a handful of labels, so a scan beats a map.
func (s *TimeSeries) column(label string) int {
	if j := slices.Index(s.labels, label); j >= 0 {
		return j
	}
	k := len(s.labels)
	s.labels = append(s.labels, label)
	if len(s.starts) > 0 {
		wide := make([]int, len(s.starts)*(k+1))
		for i := range s.starts {
			copy(wide[i*(k+1):], s.counts[i*k:(i+1)*k])
		}
		s.counts = wide
	}
	return k
}

// find returns the row of the bucket starting at b, or where its row
// belongs and false.
func (s *TimeSeries) find(b time.Time) (int, bool) {
	if n := len(s.starts); n > 0 && s.starts[n-1].Equal(b) {
		return n - 1, true
	}
	return slices.BinarySearchFunc(s.starts, b, time.Time.Compare)
}

// Buckets returns the bucket start times in order.
func (s *TimeSeries) Buckets() []time.Time {
	return append(make([]time.Time, 0, len(s.starts)), s.starts...)
}

// Count returns the count for (bucket, label).
func (s *TimeSeries) Count(bucket time.Time, label string) int {
	i, ok := s.find(bucket.Truncate(s.Bucket))
	j := slices.Index(s.labels, label)
	if !ok || j < 0 {
		return 0
	}
	return s.counts[i*len(s.labels)+j]
}

// Rate returns the count of numLabel divided by the count of totalLabel in
// the bucket (0 if the bucket or its total is empty).
func (s *TimeSeries) Rate(bucket time.Time, numLabel, totalLabel string) float64 {
	total := s.Count(bucket, totalLabel)
	if total == 0 {
		return 0
	}
	return float64(s.Count(bucket, numLabel)) / float64(total)
}
