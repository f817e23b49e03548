package metrics

import (
	"fmt"
	"math/bits"
	"time"
)

// Hist is an HDR-style log-linear latency histogram: values are bucketed
// into 32 linear sub-buckets per power-of-two octave, giving a bounded
// ~3% relative error at every magnitude from nanoseconds to minutes with
// a few KB of counters and no allocation on the record path. It is not
// safe for concurrent use; workers record into their own and merge.
type Hist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
	min    uint64
	max    uint64
}

const (
	histSubBits = 5 // 32 linear sub-buckets per octave
	histSub     = 1 << histSubBits
	// Octaves above the linear region (values < histSub map 1:1). A
	// uint64 has 64-histSubBits=59 usable octaves; that over-covers any
	// latency, but the array is only 59*32+32 entries of 8 bytes.
	histBuckets = (64-histSubBits)*histSub + histSub
)

// bucketIndex maps a value to its bucket. Values below histSub get exact
// buckets; larger values share an octave's 32 sub-buckets.
func bucketIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(v)
	return (exp-histSubBits+1)*histSub + int((v>>(exp-histSubBits))&(histSub-1))
}

// bucketValue returns a representative (lower-bound) value for a bucket.
func bucketValue(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	exp := i/histSub + histSubBits - 1
	sub := uint64(i % histSub)
	return (1 << exp) | sub<<(exp-histSubBits)
}

// Record adds one observation.
func (h *Hist) Record(v uint64) {
	h.counts[bucketIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// RecordDuration adds one latency observation in nanoseconds.
func (h *Hist) RecordDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	if o.count == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Min and Max return the exact extreme observations (0 when empty).
func (h *Hist) Min() uint64 { return h.min }
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the exact mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the value at quantile q in [0,1], with the histogram's
// ~3% bucket resolution. q=0 returns Min, q=1 returns Max exactly.
func (h *Hist) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen > rank {
			v := bucketValue(i)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// String renders the summary quantiles for humans.
func (h *Hist) String() string {
	return fmt.Sprintf("count=%d min=%s p50=%s p99=%s p99.9=%s max=%s",
		h.count,
		time.Duration(h.min), time.Duration(h.Quantile(0.50)),
		time.Duration(h.Quantile(0.99)), time.Duration(h.Quantile(0.999)),
		time.Duration(h.max))
}
