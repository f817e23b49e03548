package stats

import (
	"math"
	"sort"
	"time"
)

// refCDF is the slice-backed CDF the counted one replaced: it keeps every
// sample and sorts them all before a query. The tests check every query of
// CDF against it.
type refCDF struct {
	values []float64
	sorted bool
}

func (c *refCDF) Add(v float64) {
	c.values = append(c.values, v)
	c.sorted = false
}

func (c *refCDF) N() int { return len(c.values) }

func (c *refCDF) sort() {
	if !c.sorted {
		sort.Float64s(c.values)
		c.sorted = true
	}
}

func (c *refCDF) Quantile(q float64) float64 {
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

func (c *refCDF) FractionAtOrBelow(x float64) float64 {
	if len(c.values) == 0 {
		return 0
	}
	c.sort()
	n := sort.SearchFloat64s(c.values, math.Nextafter(x, math.Inf(1)))
	return float64(n) / float64(len(c.values))
}

func (c *refCDF) CountAbove(x float64) int {
	c.sort()
	return len(c.values) - sort.SearchFloat64s(c.values, math.Nextafter(x, math.Inf(1)))
}

func (c *refCDF) CountInf() int {
	n := 0
	for _, v := range c.values {
		if math.IsInf(v, 1) {
			n++
		}
	}
	return n
}

func (c *refCDF) Max() float64 {
	max := 0.0
	for _, v := range c.values {
		if !math.IsInf(v, 1) && v > max {
			max = v
		}
	}
	return max
}

// refTimeSeries is the map-of-maps TimeSeries the counter rows replaced: a
// map of labels to counts per bucket. The tests check every query of
// TimeSeries against it.
type refTimeSeries struct {
	Bucket time.Duration
	counts map[time.Time]map[string]int
}

func newRefTimeSeries(bucket time.Duration) *refTimeSeries {
	return &refTimeSeries{Bucket: bucket, counts: make(map[time.Time]map[string]int)}
}

func (s *refTimeSeries) AddN(at time.Time, label string, n int) {
	b := at.Truncate(s.Bucket)
	m := s.counts[b]
	if m == nil {
		m = make(map[string]int)
		s.counts[b] = m
	}
	m[label] += n
}

func (s *refTimeSeries) Buckets() []time.Time {
	out := make([]time.Time, 0, len(s.counts))
	for b := range s.counts {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Before(out[j]) })
	return out
}

func (s *refTimeSeries) Count(bucket time.Time, label string) int {
	return s.counts[bucket.Truncate(s.Bucket)][label]
}

func (s *refTimeSeries) Rate(bucket time.Time, numLabel, totalLabel string) float64 {
	m := s.counts[bucket.Truncate(s.Bucket)]
	if m == nil || m[totalLabel] == 0 {
		return 0
	}
	return float64(m[numLabel]) / float64(m[totalLabel])
}
