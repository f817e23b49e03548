package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestCDFQuantiles(t *testing.T) {
	c := &CDF{}
	for i := 1; i <= 100; i++ {
		c.Add(float64(i))
	}
	if c.N() != 100 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Quantile(0.5); got != 50 {
		t.Errorf("median = %v, want 50", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("min = %v", got)
	}
	if got := c.Quantile(1); got != 100 {
		t.Errorf("max = %v", got)
	}
	if got := c.Quantile(0.9); got != 90 {
		t.Errorf("p90 = %v", got)
	}
}

func TestCDFFractionAtOrBelow(t *testing.T) {
	c := &CDF{}
	for _, v := range []float64{1, 2, 2, 3, 10} {
		c.Add(v)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0, 0}, {1, 0.2}, {2, 0.6}, {2.5, 0.6}, {3, 0.8}, {10, 1}, {100, 1},
	}
	for _, tc := range cases {
		if got := c.FractionAtOrBelow(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("F(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestCDFWithInfinities(t *testing.T) {
	c := &CDF{}
	c.Add(10)
	c.Add(math.Inf(1))
	c.Add(20)
	if got := c.CountInf(); got != 1 {
		t.Errorf("CountInf = %d", got)
	}
	if got := c.Max(); got != 20 {
		t.Errorf("Max (finite) = %v", got)
	}
	if got := c.Mean(); got != 15 {
		t.Errorf("Mean ignores inf: %v", got)
	}
	if got := c.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("top quantile should be +Inf, got %v", got)
	}
	if got := c.CountAbove(15); got != 2 {
		t.Errorf("CountAbove(15) = %d, want 2 (20 and +Inf)", got)
	}
}

func TestCDFPoints(t *testing.T) {
	c := &CDF{}
	for i := 1; i <= 50; i++ {
		c.Add(float64(i))
	}
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[len(pts)-1].Y != 1.0 {
		t.Errorf("last point Y = %v", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y <= pts[i-1].Y {
			t.Errorf("points not monotone at %d: %+v", i, pts)
		}
	}
	if (&CDF{}).Points(5) != nil {
		t.Error("empty CDF should render no points")
	}
}

func TestCDFEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile on empty CDF should panic")
		}
	}()
	(&CDF{}).Quantile(0.5)
}

// Property: quantile is monotone in q, and every quantile is an actual
// sample value.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := &CDF{}
		set := map[float64]bool{}
		for _, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			c.Add(v)
			set[v] = true
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		a, b := c.Quantile(q1), c.Quantile(q2)
		return a <= b && set[a] && set[b]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FractionAtOrBelow is monotone and hits 1 at the max sample.
func TestFractionMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		c := &CDF{}
		max := math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) {
				v = 0
			}
			c.Add(v)
			if v > max {
				max = v
			}
		}
		prev := -1.0
		for _, x := range []float64{max - 10, max - 1, max, max + 1} {
			got := c.FractionAtOrBelow(x)
			if got < prev {
				return false
			}
			prev = got
		}
		return c.FractionAtOrBelow(max) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: for samples drawn 1..n shuffled, Quantile matches the sorted
// order exactly.
func TestQuantileExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i + 1)
		}
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		c := &CDF{}
		for _, v := range vals {
			c.Add(v)
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.99} {
			want := vals[int(math.Ceil(q*float64(n)))-1]
			if got := c.Quantile(q); got != want {
				t.Fatalf("n=%d q=%v: got %v want %v", n, q, got, want)
			}
		}
	}
}

func TestCounter(t *testing.T) {
	var a Counter
	if a.Mean() != 0 {
		t.Error("empty counter mean should be 0")
	}
	a.Add(10)
	a.Add(20)
	if a.Mean() != 15 || a.N != 2 {
		t.Errorf("mean = %v, n = %d", a.Mean(), a.N)
	}
}

func TestRankBins(t *testing.T) {
	b := NewRankBins(10000)
	// Ranks 0..9999 in bin 0: 75% true. Ranks 10000..19999: 50% true.
	for i := 0; i < 10000; i++ {
		b.Add(i, i%4 != 0)
	}
	for i := 10000; i < 20000; i++ {
		b.Add(i, i%2 == 0)
	}
	rates := b.Rates()
	if len(rates) != 2 {
		t.Fatalf("bins = %d", len(rates))
	}
	if rates[0].Start != 0 || rates[1].Start != 10000 {
		t.Errorf("starts = %d, %d", rates[0].Start, rates[1].Start)
	}
	if math.Abs(rates[0].Rate-0.75) > 1e-9 || math.Abs(rates[1].Rate-0.5) > 1e-9 {
		t.Errorf("rates = %v, %v", rates[0].Rate, rates[1].Rate)
	}
	if rates[0].Total != 10000 {
		t.Errorf("total = %d", rates[0].Total)
	}
}

// Property: bin rates are always within [0,1] and bins are ordered.
func TestRankBinsProperty(t *testing.T) {
	f := func(ranks []uint16, flags []bool) bool {
		b := NewRankBins(100)
		for i, r := range ranks {
			ok := i < len(flags) && flags[i]
			b.Add(int(r), ok)
		}
		rates := b.Rates()
		prev := -1
		for _, br := range rates {
			if br.Rate < 0 || br.Rate > 1 || br.Total <= 0 {
				return false
			}
			if br.Start <= prev {
				return false
			}
			prev = br.Start
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTimeSeries(t *testing.T) {
	t0 := time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	s := NewTimeSeries(time.Hour)
	s.Add(t0.Add(10*time.Minute), "success")
	s.Add(t0.Add(20*time.Minute), "success")
	s.Add(t0.Add(30*time.Minute), "total")
	s.Add(t0.Add(30*time.Minute), "total")
	s.Add(t0.Add(30*time.Minute), "total")
	s.AddN(t0.Add(90*time.Minute), "total", 5)

	if got := s.Count(t0, "success"); got != 2 {
		t.Errorf("success = %d", got)
	}
	if got := s.Count(t0.Add(59*time.Minute), "total"); got != 3 {
		t.Errorf("total via mid-bucket key = %d", got)
	}
	if got := s.Rate(t0, "success", "total"); math.Abs(got-2.0/3.0) > 1e-9 {
		t.Errorf("rate = %v", got)
	}
	if got := s.Rate(t0.Add(2*time.Hour), "success", "total"); got != 0 {
		t.Errorf("empty bucket rate = %v", got)
	}
	buckets := s.Buckets()
	if len(buckets) != 2 || !buckets[0].Equal(t0) || !buckets[1].Equal(t0.Add(time.Hour)) {
		t.Errorf("buckets = %v", buckets)
	}
}
