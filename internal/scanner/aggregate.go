package scanner

import (
	"math"
	"sort"
	"time"

	"github.com/netmeasure/muststaple/internal/stats"
)

// AvailabilitySeries aggregates Figure 3: the fraction of HTTP-successful
// requests per vantage per time bucket.
type AvailabilitySeries struct {
	series map[string]*stats.TimeSeries // vantage -> series
	bucket time.Duration
}

// NewAvailabilitySeries buckets observations at the given width (the paper
// plots hourly).
func NewAvailabilitySeries(bucket time.Duration) *AvailabilitySeries {
	return &AvailabilitySeries{series: make(map[string]*stats.TimeSeries), bucket: bucket}
}

// Add implements Aggregator.
func (a *AvailabilitySeries) Add(o Observation) {
	s := a.series[o.Vantage]
	if s == nil {
		s = stats.NewTimeSeries(a.bucket)
		a.series[o.Vantage] = s
	}
	s.Add(o.At, "total")
	if o.Class.HTTPSuccessful() {
		s.Add(o.At, "success")
	}
}

// Vantages returns the observed vantage names, sorted.
func (a *AvailabilitySeries) Vantages() []string {
	out := make([]string, 0, len(a.series))
	for v := range a.series {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Series returns (bucket, success fraction) pairs for one vantage.
func (a *AvailabilitySeries) Series(vantage string) ([]time.Time, []float64) {
	s := a.series[vantage]
	if s == nil {
		return nil, nil
	}
	buckets := s.Buckets()
	rates := make([]float64, len(buckets))
	for i, b := range buckets {
		rates[i] = s.Rate(b, "success", "total")
	}
	return buckets, rates
}

// OverallFailureRate returns 1 − success/total across all buckets of one
// vantage (the §5.2 per-vantage failure rates: 2.2% Virginia … 5.7% São
// Paulo, 1.7% average).
func (a *AvailabilitySeries) OverallFailureRate(vantage string) float64 {
	s := a.series[vantage]
	if s == nil {
		return 0
	}
	var succ, tot int
	for _, b := range s.Buckets() {
		succ += s.Count(b, "success")
		tot += s.Count(b, "total")
	}
	if tot == 0 {
		return 0
	}
	return 1 - float64(succ)/float64(tot)
}

// AverageFailureRate is the mean failure rate across vantages.
func (a *AvailabilitySeries) AverageFailureRate() float64 {
	vs := a.Vantages()
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		sum += a.OverallFailureRate(v)
	}
	return sum / float64(len(vs))
}

// DomainImpact aggregates Figure 4: the number of (weighted) Alexa domains
// whose OCSP lookup failed, per vantage per time bucket. DomainWeight
// scales each probed domain to the number of real-world domains it
// represents in a scaled-down run.
type DomainImpact struct {
	DomainWeight int
	series       map[string]*stats.TimeSeries
	bucket       time.Duration
}

// NewDomainImpact buckets at the given width.
func NewDomainImpact(bucket time.Duration, domainWeight int) *DomainImpact {
	if domainWeight <= 0 {
		domainWeight = 1
	}
	return &DomainImpact{DomainWeight: domainWeight, series: make(map[string]*stats.TimeSeries), bucket: bucket}
}

// Add implements Aggregator. Observations without a domain are ignored.
func (d *DomainImpact) Add(o Observation) {
	if o.Domain == "" {
		return
	}
	s := d.series[o.Vantage]
	if s == nil {
		s = stats.NewTimeSeries(d.bucket)
		d.series[o.Vantage] = s
	}
	if !o.Class.HTTPSuccessful() {
		s.AddN(o.At, "failed", d.DomainWeight*max(o.DomainWeight, 1))
	}
}

// Series returns (bucket, failed-domain count) for a vantage.
func (d *DomainImpact) Series(vantage string) ([]time.Time, []int) {
	s := d.series[vantage]
	if s == nil {
		return nil, nil
	}
	buckets := s.Buckets()
	counts := make([]int, len(buckets))
	for i, b := range buckets {
		counts[i] = s.Count(b, "failed")
	}
	return buckets, counts
}

// Peak returns the worst bucket for a vantage.
func (d *DomainImpact) Peak(vantage string) (time.Time, int) {
	buckets, counts := d.Series(vantage)
	var peakAt time.Time
	peak := 0
	for i, c := range counts {
		if c > peak {
			peak = c
			peakAt = buckets[i]
		}
	}
	return peakAt, peak
}

// UnusableSeries aggregates Figure 5: among HTTP-successful exchanges, the
// percentage that are unusable, split by cause (ASN.1 unparseable, serial
// unmatch, signature invalid).
type UnusableSeries struct {
	series *stats.TimeSeries
}

// NewUnusableSeries buckets at the given width.
func NewUnusableSeries(bucket time.Duration) *UnusableSeries {
	return &UnusableSeries{series: stats.NewTimeSeries(bucket)}
}

// Add implements Aggregator.
func (u *UnusableSeries) Add(o Observation) {
	if !o.Class.HTTPSuccessful() {
		return
	}
	u.series.Add(o.At, "total")
	switch o.Class {
	case ClassASN1:
		u.series.Add(o.At, "asn1")
	case ClassSerialUnmatch:
		u.series.Add(o.At, "serial")
	case ClassSignature:
		u.series.Add(o.At, "signature")
	}
}

// Series returns, for each bucket, the percentage of each failure cause.
func (u *UnusableSeries) Series() (buckets []time.Time, asn1, serial, signature []float64) {
	buckets = u.series.Buckets()
	for _, b := range buckets {
		asn1 = append(asn1, 100*u.series.Rate(b, "asn1", "total"))
		serial = append(serial, 100*u.series.Rate(b, "serial", "total"))
		signature = append(signature, 100*u.series.Rate(b, "signature", "total"))
	}
	return
}

// Totals returns overall counts by cause.
func (u *UnusableSeries) Totals() (asn1, serial, signature, total int) {
	for _, b := range u.series.Buckets() {
		asn1 += u.series.Count(b, "asn1")
		serial += u.series.Count(b, "serial")
		signature += u.series.Count(b, "signature")
		total += u.series.Count(b, "total")
	}
	return
}

// responderQuality accumulates per-responder response-quality metrics.
type responderQuality struct {
	certs    stats.Counter
	serials  stats.Counter
	validity stats.Counter // seconds; -1 sentinel handled via blankCount
	margin   stats.Counter // seconds between receipt and thisUpdate
	blank    int           // responses with blank nextUpdate
	future   int           // responses with future thisUpdate
	usable   int

	// producedAt tracking for the on-demand analysis (§5.4).
	lastProducedAt time.Time
	// producedGaps counts each gap, in seconds, between distinct
	// producedAt values: a responder's gaps repeat its update interval,
	// so the counts stay few however many rounds a campaign scans.
	producedGaps    map[float64]int
	gaps            int // samples in producedGaps
	regressions     int // producedAt went backwards (multi-instance farms)
	onDemandSamples int // receipt − producedAt < 2 minutes
}

// medianGap returns the gap a sorted list of every sample would hold at
// index len/2, or 0 if there are none.
func (r *responderQuality) medianGap() float64 {
	vals := make([]float64, 0, len(r.producedGaps))
	for v := range r.producedGaps {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	seen := 0
	for _, v := range vals {
		if seen += r.producedGaps[v]; seen > r.gaps/2 {
			return v
		}
	}
	return 0
}

// QualityAggregator computes the per-responder distributions behind
// Figures 6–9 and the §5.4 on-demand analysis.
type QualityAggregator struct {
	responders map[string]*responderQuality
}

// NewQualityAggregator returns an empty aggregator.
func NewQualityAggregator() *QualityAggregator {
	return &QualityAggregator{responders: make(map[string]*responderQuality)}
}

// Add implements Aggregator. Only parseable successful responses carry
// quality signals.
func (q *QualityAggregator) Add(o Observation) {
	switch o.Class {
	case ClassOK, ClassSerialUnmatch, ClassSignature:
	default:
		return
	}
	r := q.responders[o.Responder]
	if r == nil {
		r = &responderQuality{}
		q.responders[o.Responder] = r
	}
	r.usable++
	r.certs.Add(float64(o.NumCerts))
	r.serials.Add(float64(o.NumSerials))

	if o.HasNextUpdate {
		r.validity.Add(o.NextUpdate.Sub(o.ThisUpdate).Seconds())
	} else {
		r.blank++
	}

	margin := o.At.Sub(o.ThisUpdate).Seconds()
	r.margin.Add(margin)
	if margin < 0 {
		r.future++
	}

	// On-demand detection: the paper treats a response whose
	// producedAt is within 2 minutes of receipt as generated on demand.
	if o.At.Sub(o.ProducedAt) < 2*time.Minute {
		r.onDemandSamples++
	}
	if !r.lastProducedAt.IsZero() && !o.ProducedAt.Equal(r.lastProducedAt) {
		gap := o.ProducedAt.Sub(r.lastProducedAt).Seconds()
		if gap < 0 {
			r.regressions++
		} else {
			if r.producedGaps == nil {
				r.producedGaps = make(map[float64]int)
			}
			r.producedGaps[gap]++
			r.gaps++
		}
	}
	r.lastProducedAt = o.ProducedAt
}

// NumResponders returns how many responders produced at least one
// parseable response.
func (q *QualityAggregator) NumResponders() int { return len(q.responders) }

// CertCountCDF returns the Figure 6 CDF: average certificates per response,
// one sample per responder.
func (q *QualityAggregator) CertCountCDF() *stats.CDF {
	c := &stats.CDF{}
	for _, r := range q.responders {
		c.Add(r.certs.Mean())
	}
	return c
}

// SerialCountCDF returns the Figure 7 CDF: average serial numbers per
// response per responder.
func (q *QualityAggregator) SerialCountCDF() *stats.CDF {
	c := &stats.CDF{}
	for _, r := range q.responders {
		c.Add(r.serials.Mean())
	}
	return c
}

// ValidityCDF returns the Figure 8 CDF: average validity period (seconds)
// per responder; responders that always leave nextUpdate blank contribute
// +Inf.
func (q *QualityAggregator) ValidityCDF() *stats.CDF {
	c := &stats.CDF{}
	for _, r := range q.responders {
		if r.validity.N == 0 && r.blank > 0 {
			c.Add(math.Inf(1))
			continue
		}
		if r.validity.N > 0 {
			c.Add(r.validity.Mean())
		}
	}
	return c
}

// MarginCDF returns the Figure 9 CDF: average (receipt − thisUpdate)
// seconds per responder.
func (q *QualityAggregator) MarginCDF() *stats.CDF {
	c := &stats.CDF{}
	for _, r := range q.responders {
		if r.margin.N > 0 {
			c.Add(r.margin.Mean())
		}
	}
	return c
}

// BlankNextUpdateCount returns how many responders always omitted
// nextUpdate (9.1% in the paper).
func (q *QualityAggregator) BlankNextUpdateCount() int {
	n := 0
	for _, r := range q.responders {
		if r.blank > 0 && r.validity.N == 0 {
			n++
		}
	}
	return n
}

// ZeroMarginCount returns responders whose average margin is ≤ threshold
// seconds (85 zero-margin responders in the paper), excluding
// future-thisUpdate responders.
func (q *QualityAggregator) ZeroMarginCount(threshold float64) int {
	n := 0
	for _, r := range q.responders {
		if r.margin.N > 0 {
			m := r.margin.Mean()
			if m >= 0 && m <= threshold {
				n++
			}
		}
	}
	return n
}

// FutureThisUpdateCount returns responders that ever returned a response
// whose thisUpdate was in the future (15 in the paper).
func (q *QualityAggregator) FutureThisUpdateCount() int {
	n := 0
	for _, r := range q.responders {
		if r.future > 0 {
			n++
		}
	}
	return n
}

// OnDemandStats summarizes the §5.4 producedAt analysis for one responder.
type OnDemandStats struct {
	Responder string
	// OnDemand is true when the responder generates responses per
	// request (producedAt tracks receipt).
	OnDemand bool
	// UpdateIntervalSec is the median gap between distinct producedAt
	// values for caching responders (0 for on-demand ones).
	UpdateIntervalSec float64
	// ValiditySec is the responder's average validity period.
	ValiditySec float64
	// NonOverlapping is true when validity ≤ update interval: clients
	// can be left with no fresh response (the hinet/cnnic hazard).
	NonOverlapping bool
	// ProducedAtRegressions counts backwards producedAt movements
	// (multi-instance farms serving stale responses).
	ProducedAtRegressions int
}

// OnDemand computes per-responder on-demand statistics, sorted by
// responder name.
func (q *QualityAggregator) OnDemand() []OnDemandStats {
	names := make([]string, 0, len(q.responders))
	for name := range q.responders {
		names = append(names, name)
	}
	sort.Strings(names)

	var out []OnDemandStats
	for _, name := range names {
		r := q.responders[name]
		if r.usable == 0 {
			continue
		}
		st := OnDemandStats{
			Responder:             name,
			OnDemand:              float64(r.onDemandSamples) >= 0.9*float64(r.usable),
			ValiditySec:           r.validity.Mean(),
			ProducedAtRegressions: r.regressions,
		}
		if !st.OnDemand && r.gaps > 0 {
			st.UpdateIntervalSec = r.medianGap()
			if r.validity.N > 0 && st.ValiditySec <= st.UpdateIntervalSec {
				st.NonOverlapping = true
			}
		}
		out = append(out, st)
	}
	return out
}

// ResponderAvailability tracks per-(responder, vantage) success/failure
// counts — the §5.2 persistent-failure and outage analyses.
type ResponderAvailability struct {
	counts map[string]map[string]*struct{ success, fail int }
}

// NewResponderAvailability returns an empty tracker.
func NewResponderAvailability() *ResponderAvailability {
	return &ResponderAvailability{counts: make(map[string]map[string]*struct{ success, fail int })}
}

// Add implements Aggregator.
func (ra *ResponderAvailability) Add(o Observation) {
	byVantage := ra.counts[o.Responder]
	if byVantage == nil {
		byVantage = make(map[string]*struct{ success, fail int })
		ra.counts[o.Responder] = byVantage
	}
	c := byVantage[o.Vantage]
	if c == nil {
		c = &struct{ success, fail int }{}
		byVantage[o.Vantage] = c
	}
	if o.Class.HTTPSuccessful() {
		c.success++
	} else {
		c.fail++
	}
}

// AlwaysDead returns responders that never answered successfully from any
// vantage (2 in the paper).
func (ra *ResponderAvailability) AlwaysDead() []string {
	var out []string
	for name, byVantage := range ra.counts {
		dead := true
		for _, c := range byVantage {
			if c.success > 0 {
				dead = false
				break
			}
		}
		if dead {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// persistentThreshold is the per-vantage success rate below which a
// responder counts as persistently failing from that vantage. The
// tolerance (rather than exactly zero successes) covers responders fixed
// days before a campaign ends — the five digitalcertvalidation hosts were
// repaired on August 31, four days before the paper's campaign finished,
// and are still reported among the 29 persistent failures.
const persistentThreshold = 0.05

func (ra *ResponderAvailability) isPersistent(byVantage map[string]*struct{ success, fail int }) bool {
	for _, c := range byVantage {
		total := c.success + c.fail
		if total == 0 || c.fail == 0 {
			continue
		}
		if float64(c.success)/float64(total) < persistentThreshold {
			return true
		}
	}
	return false
}

// PersistentlyFailing returns responders that (essentially) never
// succeeded from at least one vantage, excluding the always-dead set
// (29 in the paper).
func (ra *ResponderAvailability) PersistentlyFailing() []string {
	dead := map[string]bool{}
	for _, name := range ra.AlwaysDead() {
		dead[name] = true
	}
	var out []string
	for name, byVantage := range ra.counts {
		if dead[name] {
			continue
		}
		if ra.isPersistent(byVantage) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// WithOutages returns responders that experienced a transient outage —
// failed and recovered from some vantage — excluding the always-dead and
// persistently failing sets (36.8% of responders in the paper).
func (ra *ResponderAvailability) WithOutages() []string {
	skip := map[string]bool{}
	for _, name := range ra.AlwaysDead() {
		skip[name] = true
	}
	for _, name := range ra.PersistentlyFailing() {
		skip[name] = true
	}
	var out []string
	for name, byVantage := range ra.counts {
		if skip[name] {
			continue
		}
		hit := false
		for _, c := range byVantage {
			if c.success > 0 && c.fail > 0 {
				hit = true
				break
			}
		}
		if hit {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// NumResponders returns the number of distinct responders observed.
func (ra *ResponderAvailability) NumResponders() int { return len(ra.counts) }

// LatencyAggregator collects OCSP lookup latency distributions — the
// related-work axis of §3 (Stark et al. measured a 291 ms median in 2012;
// Zhu et al. 20 ms in 2016 with 94% of responders CDN-fronted). The
// simulated network's latency model makes these deterministic.
type LatencyAggregator struct {
	overall    stats.CDF
	perVantage map[string]*stats.CDF
}

// NewLatencyAggregator returns an empty aggregator.
func NewLatencyAggregator() *LatencyAggregator {
	return &LatencyAggregator{perVantage: make(map[string]*stats.CDF)}
}

// Add implements Aggregator; only exchanges that produced an HTTP response
// carry a meaningful latency.
func (l *LatencyAggregator) Add(o Observation) {
	if !o.Class.HTTPSuccessful() || o.Latency <= 0 {
		return
	}
	ms := float64(o.Latency.Microseconds()) / 1000
	l.overall.Add(ms)
	c := l.perVantage[o.Vantage]
	if c == nil {
		c = &stats.CDF{}
		l.perVantage[o.Vantage] = c
	}
	c.Add(ms)
}

// Overall returns the all-vantage latency CDF (milliseconds).
func (l *LatencyAggregator) Overall() *stats.CDF { return &l.overall }

// Vantage returns one vantage's CDF (nil if unseen).
func (l *LatencyAggregator) Vantage(name string) *stats.CDF { return l.perVantage[name] }

// Vantages lists the observed vantage names, sorted.
func (l *LatencyAggregator) Vantages() []string {
	out := make([]string, 0, len(l.perVantage))
	for v := range l.perVantage {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
