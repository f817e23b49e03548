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

// CDF is an empirical cumulative distribution over float64 samples.
type CDF struct {
	values []float64
	sorted bool
}

// Add inserts a sample. math.Inf(1) is a legal sample.
func (c *CDF) Add(v float64) {
	c.values = append(c.values, v)
	c.sorted = false
}

// N returns the sample count.
func (c *CDF) N() int { return len(c.values) }

func (c *CDF) sort() {
	if !c.sorted {
		sort.Float64s(c.values)
		c.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using the nearest-rank
// method. It panics on an empty CDF.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.values) == 0 {
		panic("stats: quantile of empty CDF")
	}
	c.sort()
	if q <= 0 {
		return c.values[0]
	}
	if q >= 1 {
		return c.values[len(c.values)-1]
	}
	idx := int(math.Ceil(q*float64(len(c.values)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.values[idx]
}

// FractionAtOrBelow returns the empirical CDF evaluated at x.
func (c *CDF) FractionAtOrBelow(x float64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	c.sort()
	n := sort.SearchFloat64s(c.values, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.values))
}

// CountAbove returns how many samples strictly exceed x (Infs included).
func (c *CDF) CountAbove(x float64) int {
	c.sort()
	return len(c.values) - sort.SearchFloat64s(c.values, math.Nextafter(x, math.Inf(1)))
}

// CountInf returns the number of +Inf samples.
func (c *CDF) CountInf() int {
	n := 0
	for _, v := range c.values {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

// Max returns the largest finite sample, or 0 if none.
func (c *CDF) Max() float64 {
	max := 0.0
	for _, v := range c.values {
		if !math.IsInf(v, 1) && v > max {
			max = v
		}
	}
	return max
}

// Point is one rendered CDF point.
type Point struct {
	X float64 // sample value
	Y float64 // cumulative fraction in (0, 1]
}

// Points renders the CDF as up to n evenly spaced quantile points,
// suitable for printing a figure's series.
func (c *CDF) Points(n int) []Point {
	if len(c.values) == 0 || n <= 0 {
		return nil
	}
	c.sort()
	if n > len(c.values) {
		n = len(c.values)
	}
	out := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		q := float64(i) / float64(n)
		out = append(out, Point{X: c.Quantile(q), Y: q})
	}
	return out
}

// Mean returns the mean of finite samples.
func (c *CDF) Mean() float64 {
	sum, n := 0.0, 0
	for _, v := range c.values {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
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
