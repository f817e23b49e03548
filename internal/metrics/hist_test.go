package metrics

import (
	"math/rand"
	"testing"
)

func TestBucketIndexMonotonic(t *testing.T) {
	// Bucket indexes must be monotonic in the value, and bucketValue must
	// land inside each bucket's range.
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<20 + 5, 1 << 40, 1<<63 + 12345} {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", v, i, prev)
		}
		prev = i
		if rep := bucketValue(i); bucketIndex(rep) != i {
			t.Errorf("bucketValue(%d) = %d maps back to bucket %d", i, rep, bucketIndex(rep))
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h Hist
	// 1..10000: quantiles are predictable, and ~3% relative error is the
	// histogram's contract.
	for v := uint64(1); v <= 10000; v++ {
		h.Record(v)
	}
	if h.Count() != 10000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != 1 || h.Max() != 10000 {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
	for _, tt := range []struct {
		q    float64
		want uint64
	}{{0.50, 5000}, {0.90, 9000}, {0.99, 9900}, {0.999, 9990}} {
		got := h.Quantile(tt.q)
		relerr := float64(got)/float64(tt.want) - 1
		if relerr < -0.04 || relerr > 0.04 {
			t.Errorf("Quantile(%v) = %d, want %d ±4%%", tt.q, got, tt.want)
		}
	}
	if h.Quantile(0) != 1 || h.Quantile(1) != 10000 {
		t.Errorf("extreme quantiles: %d, %d", h.Quantile(0), h.Quantile(1))
	}
	if mean := h.Mean(); mean < 5000 || mean > 5001 {
		t.Errorf("mean = %v, want 5000.5", mean)
	}
}

func TestHistMerge(t *testing.T) {
	var a, b, whole Hist
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		v := uint64(rng.Intn(1_000_000))
		whole.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merge mismatch: count %d/%d min %d/%d max %d/%d",
			a.Count(), whole.Count(), a.Min(), whole.Min(), a.Max(), whole.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("Quantile(%v): merged %d, whole %d", q, a.Quantile(q), whole.Quantile(q))
		}
	}
}
