// Package report renders every table and figure of the paper from the
// reproduction's measured aggregates, in the same shape the paper presents
// them (series per vantage, CDFs per responder, support matrices), as
// plain text suitable for EXPERIMENTS.md.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/netmeasure/muststaple/internal/browser"
	"github.com/netmeasure/muststaple/internal/census"
	"github.com/netmeasure/muststaple/internal/consistency"
	"github.com/netmeasure/muststaple/internal/impact"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/stats"
	"github.com/netmeasure/muststaple/internal/vulnwindow"
	"github.com/netmeasure/muststaple/internal/webserver"
)

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
}

// Section4 prints the §4 deployment-status numbers.
func Section4(w io.Writer, snap census.SnapshotStats, alexa census.AlexaStats, alexaScale int) {
	header(w, "Section 4: status of OCSP Must-Staple")
	fmt.Fprintf(w, "certificates (scaled estimate): total=%d valid=%d ocsp=%d\n", snap.Total, snap.Valid, snap.OCSP)
	fmt.Fprintf(w, "OCSP share of valid certificates: %.1f%% (paper: 95.4%%)\n", 100*snap.OCSPFractionOfValid)
	fmt.Fprintf(w, "Must-Staple certificates (exact): %d (%.3f%% of valid; paper: 29,709 = 0.02%%)\n",
		snap.MustStaple, 100*snap.MustStapleFractionOfValid)
	cas := make([]string, 0, len(snap.MustStapleByCA))
	for ca := range snap.MustStapleByCA {
		cas = append(cas, ca)
	}
	sort.Slice(cas, func(i, j int) bool { return snap.MustStapleByCA[cas[i]] > snap.MustStapleByCA[cas[j]] })
	for _, ca := range cas {
		fmt.Fprintf(w, "  %-16s %d\n", ca, snap.MustStapleByCA[ca])
	}
	fmt.Fprintf(w, "Alexa model (1 unit = %d domains): HTTPS=%.1f%% OCSP-of-HTTPS=%.1f%% Must-Staple domains=%d (paper: 100)\n",
		alexaScale, 100*float64(alexa.HTTPS)/float64(alexa.Domains), 100*alexa.OCSPRate, alexa.MustStaple)
}

// RankSeries prints a rank-binned adoption curve (Figures 2 and 11).
func RankSeries(w io.Writer, title string, scale int, series map[string][]stats.BinRate) {
	header(w, title)
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s", "rank-bin")
	for _, name := range names {
		fmt.Fprintf(w, " %18s", name)
	}
	fmt.Fprintln(w)
	if len(names) == 0 {
		return
	}
	for i, bin := range series[names[0]] {
		fmt.Fprintf(w, "%-12d", bin.Start*scale)
		for _, name := range names {
			if i < len(series[name]) {
				fmt.Fprintf(w, " %17.1f%%", 100*series[name][i].Rate)
			}
		}
		fmt.Fprintln(w)
	}
}

// Figure3 prints per-vantage success-rate series plus the §5.2 summary.
func Figure3(w io.Writer, avail *scanner.AvailabilitySeries, every int) {
	header(w, "Figure 3: fraction of successful requests per vantage")
	vantages := avail.Vantages()
	fmt.Fprintf(w, "%-18s", "time")
	for _, v := range vantages {
		fmt.Fprintf(w, " %10s", v)
	}
	fmt.Fprintln(w)
	if len(vantages) == 0 {
		return
	}
	buckets, _ := avail.Series(vantages[0])
	rates := map[string][]float64{}
	for _, v := range vantages {
		_, rates[v] = avail.Series(v)
	}
	if every < 1 {
		every = 1
	}
	for i := 0; i < len(buckets); i += every {
		fmt.Fprintf(w, "%-18s", buckets[i].Format("2006-01-02 15:04"))
		for _, v := range vantages {
			fmt.Fprintf(w, " %9.2f%%", 100*rates[v][i])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "overall failure rates:")
	for _, v := range vantages {
		fmt.Fprintf(w, " %s=%.1f%%", v, 100*avail.OverallFailureRate(v))
	}
	fmt.Fprintf(w, " avg=%.1f%% (paper: 2.2%%–5.7%%, avg 1.7%%)\n", 100*avail.AverageFailureRate())
}

// AvailabilitySummary prints the §5.2 responder-level classification.
func AvailabilitySummary(w io.Writer, ra *scanner.ResponderAvailability) {
	header(w, "Section 5.2: responder availability over the campaign")
	dead := ra.AlwaysDead()
	persistent := ra.PersistentlyFailing()
	outages := ra.WithOutages()
	total := ra.NumResponders()
	fmt.Fprintf(w, "responders observed: %d\n", total)
	fmt.Fprintf(w, "never successful from any vantage: %d (paper: 2): %s\n", len(dead), strings.Join(dead, ", "))
	fmt.Fprintf(w, "persistently failing from ≥1 vantage: %d (paper: 29)\n", len(persistent))
	if total > 0 {
		fmt.Fprintf(w, "experienced ≥1 transient outage: %d = %.1f%% (paper: 211 = 36.8%%)\n",
			len(outages), 100*float64(len(outages))/float64(total))
	}
}

// Figure4 prints the domain-impact series.
func Figure4(w io.Writer, impact *scanner.DomainImpact, vantages []string, every int) {
	header(w, "Figure 4: Alexa domains unable to fetch OCSP (scaled to Top-1M)")
	for _, v := range vantages {
		at, peak := impact.Peak(v)
		fmt.Fprintf(w, "%-10s peak=%7d domains at %s\n", v, peak, at.Format("2006-01-02 15:04"))
	}
	if every < 1 {
		every = 1
	}
	if len(vantages) > 0 {
		buckets, counts := impact.Series(vantages[0])
		for i := 0; i < len(buckets); i += every {
			if counts[i] > 0 {
				fmt.Fprintf(w, "  %s %s: %d domains failing\n", vantages[0], buckets[i].Format("2006-01-02 15:04"), counts[i])
			}
		}
	}
	fmt.Fprintln(w, "(paper: Comodo outage → ~163K domains from Oregon/Sydney/Seoul; Digicert → 77K from Seoul)")
}

// Figure5 prints the unusable-response breakdown.
func Figure5(w io.Writer, u *scanner.UnusableSeries) {
	header(w, "Figure 5: unusable OCSP responses by cause")
	asn1, serial, sig, total := u.Totals()
	if total == 0 {
		fmt.Fprintln(w, "no HTTP-successful exchanges")
		return
	}
	fmt.Fprintf(w, "of %d HTTP-successful exchanges: ASN.1-unparseable=%.2f%% serial-unmatch=%.2f%% signature-invalid=%.2f%%\n",
		total, 100*float64(asn1)/float64(total), 100*float64(serial)/float64(total), 100*float64(sig)/float64(total))
	buckets, a, s, g := u.Series()
	peak := 0.0
	var peakAt time.Time
	for i := range buckets {
		if a[i]+s[i]+g[i] > peak {
			peak = a[i] + s[i] + g[i]
			peakAt = buckets[i]
		}
	}
	fmt.Fprintf(w, "worst bucket: %.2f%% unusable at %s (paper: spikes to ~3%% during the sheca/postsignum episodes)\n",
		peak, peakAt.Format("2006-01-02 15:04"))
}

// CDFReport prints a CDF in the paper's figure shape.
func CDFReport(w io.Writer, title, unit string, cdf *stats.CDF, marks []float64) {
	header(w, title)
	if cdf.N() == 0 {
		fmt.Fprintln(w, "no samples")
		return
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
		v := cdf.Quantile(q)
		if math.IsInf(v, 1) {
			fmt.Fprintf(w, "  p%-4.0f = +Inf (blank nextUpdate)\n", q*100)
		} else {
			fmt.Fprintf(w, "  p%-4.0f = %.1f %s\n", q*100, v, unit)
		}
	}
	for _, m := range marks {
		fmt.Fprintf(w, "  fraction ≤ %.0f %s: %.1f%%\n", m, unit, 100*cdf.FractionAtOrBelow(m))
	}
}

// Quality prints Figures 6–9 plus the §5.4 on-demand analysis.
func Quality(w io.Writer, q *scanner.QualityAggregator) {
	CDFReport(w, "Figure 6: avg certificates per OCSP response (per responder)", "certs", q.CertCountCDF(), []float64{1})
	fmt.Fprintf(w, "responders sending >1 certificate: %d of %d (paper: 79 = 14.5–15%%)\n",
		q.CertCountCDF().CountAbove(1), q.NumResponders())

	CDFReport(w, "Figure 7: avg serial numbers per OCSP response (per responder)", "serials", q.SerialCountCDF(), []float64{1})
	fmt.Fprintf(w, "responders sending >1 serial: %d; always 20 serials: %d (paper: 4.8%%; 17 responders with 20)\n",
		q.SerialCountCDF().CountAbove(1), q.SerialCountCDF().CountAbove(19))

	CDFReport(w, "Figure 8: validity period (nextUpdate − thisUpdate)", "s", q.ValidityCDF(), []float64{7 * 24 * 3600})
	validityCDF := q.ValidityCDF()
	fmt.Fprintf(w, "blank nextUpdate responders: %d (paper: 45 = 9.1%%); >1 month (finite): %d (paper: 11 = 2%%); max finite: %.0f s (paper: 108,130,800 s = 1,251 days)\n",
		q.BlankNextUpdateCount(), validityCDF.CountAbove(31*24*3600)-validityCDF.CountInf(), validityCDF.Max())

	CDFReport(w, "Figure 9: thisUpdate margin (receipt − thisUpdate)", "s", q.MarginCDF(), []float64{0})
	fmt.Fprintf(w, "zero-margin responders: %d (paper: 85 = 17.2%%); future thisUpdate: %d (paper: 15 = 3%%)\n",
		q.ZeroMarginCount(1), q.FutureThisUpdateCount())

	header(w, "Section 5.4: on-demand vs pre-generated responses")
	onDemand, cached, nonOverlap, regressions := 0, 0, 0, 0
	for _, st := range q.OnDemand() {
		if st.OnDemand {
			onDemand++
			continue
		}
		cached++
		if st.NonOverlapping {
			nonOverlap++
			fmt.Fprintf(w, "  non-overlapping: %s validity=%.0fs update-interval=%.0fs\n", st.Responder, st.ValiditySec, st.UpdateIntervalSec)
		}
		if st.ProducedAtRegressions > 0 {
			regressions++
		}
	}
	total := onDemand + cached
	if total > 0 {
		fmt.Fprintf(w, "not generated on demand: %d of %d = %.1f%% (paper: 245 of 483 = 51.7%%)\n",
			cached, total, 100*float64(cached)/float64(total))
	}
	fmt.Fprintf(w, "validity == update interval: %d responders (paper: 7, incl. hinet 7200s and cnnic 10800s)\n", nonOverlap)
	fmt.Fprintf(w, "multi-instance producedAt regressions: %d responders (paper: footnote 17)\n", regressions)
}

// Table1 prints the CRL/OCSP status-discrepancy table and Figure 10.
func Table1(w io.Writer, rep *consistency.Report) {
	header(w, "Table 1: CRL/OCSP revocation-status discrepancies")
	fmt.Fprintf(w, "CRLs fetched=%d failed=%d; serials in CRLs=%d, unexpired=%d, OCSP responses=%d (%.1f%%)\n",
		rep.CRLsFetched, rep.CRLsFailed, rep.SerialsInCRLs, rep.UnexpiredSerials, rep.ResponsesCollected,
		pct(rep.ResponsesCollected, rep.UnexpiredSerials))
	fmt.Fprintf(w, "%-40s %8s %8s %8s\n", "OCSP URL", "Unknown", "Good", "Revoked")
	for _, row := range rep.DiscrepantRows() {
		fmt.Fprintf(w, "%-40s %8d %8d %8d\n", row.OCSPURL, row.Unknown, row.Good, row.Revoked)
	}
	fmt.Fprintf(w, "(paper: 7 discrepant responders; 5 × Good, 2 × Unknown-for-all)\n")

	header(w, "Figure 10: OCSP − CRL revocation-time deltas")
	fmt.Fprintf(w, "revoked pairs compared: %d; differing: %d (%.2f%%; paper: 863 = 0.15%%); negative: %d (%.1f%% of differing; paper: 14.7%%)\n",
		rep.TimeDeltas.N(), rep.DifferingTimes, pct(rep.DifferingTimes, rep.TimeDeltas.N()),
		rep.NegativeTimes, pct(rep.NegativeTimes, rep.DifferingTimes))
	if rep.TimeDeltas.N() > 0 {
		fmt.Fprintf(w, "max delta: %.0f s (paper: >137M s ≈ 4 years)\n", rep.TimeDeltas.Quantile(1))
	}
	fmt.Fprintf(w, "reason-code discrepancies: %d; of those, CRL-only reasons: %d = %.2f%% (paper: 15%% differ, 99.99%% CRL-only)\n",
		rep.ReasonDiffer, rep.ReasonOnlyInCRL, pct(rep.ReasonOnlyInCRL, rep.ReasonDiffer))
}

// Table2 prints the browser support matrix.
func Table2(w io.Writer, rows []browser.Table2Row) {
	header(w, "Table 2: browser support for OCSP Must-Staple")
	fmt.Fprintf(w, "%-28s %-8s %-16s %-18s %-14s\n", "Browser", "Mobile", "Requests staple", "Respects M-S", "Own OCSP")
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-8s %-16s %-18s %-14s\n",
			r.Behavior.String(), mark(r.Behavior.Mobile), mark(r.RequestsStaple), mark(r.RespectsMustStaple), mark(r.SendsOwnOCSP))
	}
	fmt.Fprintln(w, "(paper: all request staples; only Firefox desktop + Android respect Must-Staple; none send their own OCSP request)")
}

// Table3 prints the web-server behavior matrix.
func Table3(w io.Writer, results []*webserver.ExperimentResult) {
	header(w, "Table 3: web server OCSP Stapling behavior")
	fmt.Fprintf(w, "%-20s %-10s %-14s %-8s %-20s %-16s\n", "Server", "Prefetch", "First client", "Cache", "Respect nextUpdate", "Retain on error")
	for _, r := range results {
		first := "staple"
		if !r.FirstClientGotStaple {
			first = "no response"
		} else if r.FirstClientPaused {
			first = "paused conn."
		}
		fmt.Fprintf(w, "%-20s %-10v %-14s %-8v %-20v %-16v\n",
			r.Policy, r.PrefetchesResponse, first, r.CachesResponses, r.RespectsNextUpdate, r.RetainsOnError)
	}
	fmt.Fprintln(w, "(paper: Apache ✗(pause)/✓/✗/✗; Nginx ✗(no resp.)/✓/✓/✓)")
}

// Figure12 prints the adoption history.
func Figure12(w io.Writer, history []census.HistoryPoint) {
	header(w, "Figure 12: OCSP and OCSP Stapling adoption over time")
	fmt.Fprintf(w, "%-10s %10s %12s %12s\n", "month", "OCSP %", "stapling %", "cloudflare")
	for _, p := range history {
		fmt.Fprintf(w, "%-10s %9.1f%% %11.1f%% %12d\n", p.Month.Format("2006-01"), p.PctOCSP, p.PctStapling, p.CloudflareStaplingDomains)
	}
	before, after := census.CloudflareJump(history)
	fmt.Fprintf(w, "Cloudflare cruise-liner jump: %d → %d stapling domains (paper: 11,675 → 78,907)\n", before, after)
}

// CDNReport prints the §5.2 CDN perspective.
func CDNReport(w io.Writer, st census.CDNStats) {
	header(w, "Section 5.2: the CDN perspective")
	fmt.Fprintf(w, "TLS connections needing OCSP: %d; cache hit rate: %.1f%%\n", st.Lookups, 100*st.HitRate())
	fmt.Fprintf(w, "upstream fetches: %d to %d distinct responders; upstream success: %.1f%% (paper: ~20 responders, 100%% success)\n",
		st.UpstreamFetches, st.RespondersContacted, 100*st.UpstreamSuccessRate())
}

// HardFail prints the §8 what-if analysis: handshake breakage under
// hard-failing clients, per server stapling policy.
func HardFail(w io.Writer, results []impact.Result) {
	header(w, "Section 8 (extension): if every client hard-failed today")
	fmt.Fprintf(w, "%-14s %12s %14s\n", "server model", "handshakes", "broken")
	for _, r := range results {
		fmt.Fprintf(w, "%-14s %12d %13.2f%%\n", r.Model, r.Handshakes, 100*r.BrokenFraction)
	}
	fmt.Fprintln(w, "(the paper's argument: responder failures persist far shorter than response validity,")
	fmt.Fprintln(w, " so a retain-until-expiry server makes Must-Staple hard-failure nearly free — the")
	fmt.Fprintln(w, " residual breakage under \"correct\" is the always-dead/persistently-failing fleet tail)")
}

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// Latency prints the §3 related-work latency distributions.
func Latency(w io.Writer, l *scanner.LatencyAggregator) {
	header(w, "Related work (§3): OCSP lookup latency")
	overall := l.Overall()
	if overall.N() == 0 {
		fmt.Fprintln(w, "no samples")
		return
	}
	fmt.Fprintf(w, "overall: median=%.1f ms p90=%.1f ms p99=%.1f ms (Stark 2012: 291 ms median; Zhu 2016: 20 ms, 94%% CDN-fronted)\n",
		overall.Quantile(0.5), overall.Quantile(0.9), overall.Quantile(0.99))
	for _, v := range l.Vantages() {
		c := l.Vantage(v)
		fmt.Fprintf(w, "  %-10s median=%.1f ms p99=%.1f ms\n", v, c.Quantile(0.5), c.Quantile(0.99))
	}
}

// VulnWindows prints the window-of-vulnerability comparison.
func VulnWindows(w io.Writer, results []vulnwindow.Result) {
	header(w, "Related work (§3): window of vulnerability after revocation")
	fmt.Fprintf(w, "%-24s %12s %12s %12s\n", "mechanism", "median", "p90", "p99")
	for _, r := range results {
		fmt.Fprintf(w, "%-24s %11.1fh %11.1fh %11.1fh\n",
			r.Mechanism, r.Windows.Quantile(0.5), r.Windows.Quantile(0.9), r.Windows.Quantile(0.99))
	}
	fmt.Fprintln(w, "(honest-network timing is similar for stapling and Must-Staple; the difference is")
	fmt.Fprintln(w, " adversarial: soft-fail clients under attack never learn of the revocation at all)")
}

// CampaignStats renders the measurement engine's instrumentation: lookup
// and round counts, the retry-salvage report (retries never change the
// paper-facing aggregates, which come from first-attempt outcomes), and
// the per-class outcome breakdown.
func CampaignStats(w io.Writer, title string, st scanner.Stats) {
	header(w, title+": engine stats")
	fmt.Fprintf(w, "%s\n", st)
}

// ExperimentStats prints the per-experiment accounting line: wall time
// plus the responder fleet's signed-response cache hit rate while the
// experiment ran. Cache-friendly campaigns approach 100%; a world built
// with OnDemandSigning reports the cache as bypassed. Experiments that
// reuse an earlier campaign's aggregators drive no new scans and show an
// idle cache.
func ExperimentStats(w io.Writer, name string, wall time.Duration, hits, misses uint64) {
	total := hits + misses
	if total == 0 {
		fmt.Fprintf(w, "[%s: wall %v, responder cache idle]\n", name, wall.Round(time.Millisecond))
		return
	}
	fmt.Fprintf(w, "[%s: wall %v, responder cache %.1f%% hits (%d/%d)]\n",
		name, wall.Round(time.Millisecond), 100*float64(hits)/float64(total), hits, total)
}

// WorldBuild reports world-construction wall time. workers is
// world.Config.BuildWorkers: 0 means the pool sized itself to GOMAXPROCS.
func WorldBuild(w io.Writer, d time.Duration, workers int) {
	pool := "auto"
	if workers > 0 {
		pool = fmt.Sprintf("%d", workers)
	}
	fmt.Fprintf(w, "[world built in %v, workers=%s]\n", d.Round(time.Millisecond), pool)
}
