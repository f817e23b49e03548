package stats

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
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
	if got := c.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("top quantile should be +Inf, got %v", got)
	}
	if got := c.CountAbove(15); got != 2 {
		t.Errorf("CountAbove(15) = %d, want 2 (20 and +Inf)", got)
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

// TestTimeSeriesEdgeCases pins what the counter rows must keep from the
// map per bucket: AddN with n = 0 creates the bucket, a label first used
// in a late bucket reads 0 in the earlier ones, a bucket added before the
// others lands first, and a bucket whose total is 0 has rate 0.
func TestTimeSeriesEdgeCases(t *testing.T) {
	t0 := time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	s := NewTimeSeries(time.Hour)
	s.Add(t0.Add(2*time.Hour), "total")
	s.Add(t0.Add(3*time.Hour), "total")
	s.AddN(t0.Add(5*time.Hour), "total", 0)        // an empty bucket
	s.Add(t0.Add(3*time.Hour+time.Minute), "asn1") // a late label
	s.Add(t0.Add(30*time.Minute), "total")         // out of order
	s.AddN(t0.Add(4*time.Hour), "success", 2)      // no total
	want := []time.Time{t0, t0.Add(2 * time.Hour), t0.Add(3 * time.Hour), t0.Add(4 * time.Hour), t0.Add(5 * time.Hour)}
	if got := s.Buckets(); !slices.EqualFunc(got, want, time.Time.Equal) {
		t.Fatalf("buckets = %v, want %v", got, want)
	}
	for _, c := range []struct {
		at    time.Duration
		label string
		want  int
	}{
		{0, "total", 1}, {0, "asn1", 0}, {2 * time.Hour, "asn1", 0}, {3 * time.Hour, "asn1", 1},
		{3 * time.Hour, "total", 1}, {4 * time.Hour, "success", 2}, {5 * time.Hour, "total", 0},
		{time.Hour, "total", 0}, {4 * time.Hour, "never", 0},
	} {
		if got := s.Count(t0.Add(c.at), c.label); got != c.want {
			t.Errorf("Count(+%v, %q) = %d, want %d", c.at, c.label, got, c.want)
		}
	}
	if got := s.Rate(t0.Add(3*time.Hour), "asn1", "total"); got != 1 {
		t.Errorf("rate at +3h = %v, want 1", got)
	}
	for _, at := range []time.Duration{time.Hour, 4 * time.Hour, 5 * time.Hour} {
		if got := s.Rate(t0.Add(at), "success", "total"); got != 0 {
			t.Errorf("rate at +%v = %v, want 0 (no total)", at, got)
		}
	}
}

// TestTimeSeriesMatchesReference feeds the counter rows and the map-of-maps
// reference the same random events — buckets mostly in order with jumps
// back, labels that first appear late, n = 0 and negative n — and compares
// Buckets, and Count and Rate for every bucket, label pair and probe time,
// between adds as well as at the end.
func TestTimeSeriesMatchesReference(t *testing.T) {
	t0 := time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	labels := []string{"total", "success", "asn1", "serial", "signature", "failed"}
	widths := []time.Duration{time.Minute, time.Hour, 6 * time.Hour, 24 * time.Hour}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		width := widths[rng.Intn(len(widths))]
		got := NewTimeSeries(width)
		want := newRefTimeSeries(width)
		n := rng.Intn(2000)
		nlabels := 1 + rng.Intn(len(labels))
		lateFrom := rng.Intn(n + 1) // the last label appears only from here on
		queryEvery := 100 + rng.Intn(500)
		var at time.Duration
		for i := 0; i < n; i++ {
			switch r := rng.Intn(100); {
			case r < 5:
				at -= time.Duration(rng.Int63n(int64(20 * width))) // back, often to a new bucket
			case r < 40:
				at += time.Duration(rng.Int63n(int64(2 * width)))
			}
			k := nlabels
			if i < lateFrom && k > 1 {
				k--
			}
			label := labels[rng.Intn(k)]
			c := 1
			switch r := rng.Intn(100); {
			case r < 5:
				c = 0
			case r < 8:
				c = -rng.Intn(3)
			case r < 20:
				c = rng.Intn(1000)
			}
			got.AddN(t0.Add(at), label, c)
			want.AddN(t0.Add(at), label, c)
			if i%queryEvery == 0 {
				compareTimeSeries(t, trial, got, want, labels)
			}
		}
		compareTimeSeries(t, trial, got, want, labels)
	}
}

func compareTimeSeries(t *testing.T, trial int, got *TimeSeries, want *refTimeSeries, labels []string) {
	t.Helper()
	gb, wb := got.Buckets(), want.Buckets()
	if !slices.EqualFunc(gb, wb, time.Time.Equal) {
		t.Fatalf("trial %d: buckets = %v, want %v", trial, gb, wb)
	}
	var probes []time.Time
	for _, b := range wb {
		// The bucket's start, a time inside it, and the empty buckets
		// on either side.
		probes = append(probes, b, b.Add(want.Bucket/2), b.Add(-want.Bucket), b.Add(want.Bucket))
	}
	for _, p := range probes {
		for _, l := range labels {
			if g, w := got.Count(p, l), want.Count(p, l); g != w {
				t.Fatalf("trial %d: Count(%v, %q) = %d, want %d", trial, p, l, g, w)
			}
			for _, total := range labels {
				if g, w := got.Rate(p, l, total), want.Rate(p, l, total); g != w {
					t.Fatalf("trial %d: Rate(%v, %q, %q) = %v, want %v", trial, p, l, total, g, w)
				}
			}
		}
	}
}

// TestTimeSeriesHeapPerBucket bounds the live heap a two-label series
// holds per bucket, as a campaign's availability series adds one bucket
// per round. The map per bucket held ~300 B; the bound is checked to
// reject it, so it cannot drift loose.
func TestTimeSeriesHeapPerBucket(t *testing.T) {
	const buckets, bound = 20_000, 128
	t0 := time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	perBucket := func(add func(at time.Time, label string)) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < buckets; i++ {
			at := t0.Add(time.Duration(i) * time.Hour)
			add(at, "total")
			add(at, "success")
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / buckets
	}
	s := NewTimeSeries(time.Hour)
	got := perBucket(func(at time.Time, label string) { s.Add(at, label) })
	runtime.KeepAlive(s)
	ref := newRefTimeSeries(time.Hour)
	old := perBucket(func(at time.Time, label string) { ref.AddN(at, label, 1) })
	runtime.KeepAlive(ref)
	t.Logf("live heap per bucket: %.0f B (map per bucket: %.0f B)", got, old)
	if got > bound {
		t.Errorf("a two-label series holds %.0f B per bucket, want at most %d", got, bound)
	}
	if old <= bound {
		t.Errorf("the map-per-bucket reference holds %.0f B per bucket, within the %d B bound: the bound no longer tells them apart", old, bound)
	}
}

// sameFloat is == with every NaN equal to every NaN.
func sameFloat(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }

// TestCDFMatchesReference feeds the counted CDF and the slice-backed
// reference the same samples — heavy repeats, ±Inf, NaN, ±0 and spread
// values — and compares every query method, asked between adds as well as
// at the end, so the sorted runs are rebuilt after adds of new and of
// already-seen values.
func TestCDFMatchesReference(t *testing.T) {
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1), -3.5}
	probes := []float64{math.Inf(-1), -4, -3.5, -1, 0, 0.5, 1, 7, 12.5, 19.999, 20, 50, 1e9, math.Inf(1), math.NaN()}
	qs := []float64{-1, 0, 1e-9, 0.01, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1 - 1e-12, 1, 2}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		var got CDF
		var want refCDF
		n := rng.Intn(3000)
		distinct := 1 + rng.Intn(300)
		spread := 3 + rng.Intn(97) // percent of samples that are new values
		queryEvery := 1 + rng.Intn(1000)
		for i := 0; i < n; i++ {
			var v float64
			switch r := rng.Intn(100); {
			case r < 3:
				v = special[rng.Intn(len(special))]
			case r < spread:
				v = rng.NormFloat64() * 1e6 // distinct
			default:
				v = float64(rng.Intn(distinct)) / 4 // repeats
			}
			got.Add(v)
			want.Add(v)
			if i%queryEvery == 0 {
				compareCDF(t, trial, &got, &want, probes, qs)
			}
		}
		compareCDF(t, trial, &got, &want, probes, qs)
	}
}

func compareCDF(t *testing.T, trial int, got *CDF, want *refCDF, probes, qs []float64) {
	t.Helper()
	if g, w := got.N(), want.N(); g != w {
		t.Fatalf("trial %d: N = %d, want %d", trial, g, w)
	}
	if g, w := got.CountInf(), want.CountInf(); g != w {
		t.Fatalf("trial %d n=%d: CountInf = %d, want %d", trial, want.N(), g, w)
	}
	if g, w := got.Max(), want.Max(); !sameFloat(g, w) {
		t.Fatalf("trial %d n=%d: Max = %v, want %v", trial, want.N(), g, w)
	}
	for _, x := range probes {
		if g, w := got.FractionAtOrBelow(x), want.FractionAtOrBelow(x); g != w {
			t.Fatalf("trial %d n=%d: FractionAtOrBelow(%v) = %v, want %v", trial, want.N(), x, g, w)
		}
		if g, w := got.CountAbove(x), want.CountAbove(x); g != w {
			t.Fatalf("trial %d n=%d: CountAbove(%v) = %d, want %d", trial, want.N(), x, g, w)
		}
	}
	if want.N() == 0 {
		return
	}
	for _, q := range qs {
		if g, w := got.Quantile(q), want.Quantile(q); !sameFloat(g, w) {
			t.Fatalf("trial %d n=%d: Quantile(%v) = %v, want %v", trial, want.N(), q, g, w)
		}
	}
}

// TestCDFMemoryBoundedByDistinctValues: a million samples of 100 distinct
// values leave 100 runs and nothing per sample — the slice-backed CDF held
// all million — and adding a value already seen allocates nothing.
func TestCDFMemoryBoundedByDistinctValues(t *testing.T) {
	var c CDF
	for i := 0; i < 1_000_000; i++ {
		c.Add(float64(i*7919%100) + 0.5)
	}
	if c.N() != 1_000_000 {
		t.Fatalf("N = %d", c.N())
	}
	if got := c.Quantile(0.5); got != 49.5 {
		t.Fatalf("median = %v, want 49.5", got)
	}
	if got := c.CountAbove(98.5); got != 10_000 {
		t.Fatalf("CountAbove(98.5) = %d, want 10000", got)
	}
	if len(c.counts) != 100 || len(c.vals) != 100 || len(c.cum) != 100 {
		t.Fatalf("holds %d counts and %d/%d runs; want 100 each", len(c.counts), len(c.vals), len(c.cum))
	}
	if n := testing.AllocsPerRun(100, func() { c.Add(42.5) }); n != 0 {
		t.Fatalf("adding a known value allocates %v times, want 0", n)
	}
}
