package core

import (
	"context"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"github.com/netmeasure/muststaple/internal/expectstaple"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/report"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/store"
	"github.com/netmeasure/muststaple/internal/webserver"
	"github.com/netmeasure/muststaple/internal/world"
)

// The Expect-Staple telemetry experiment: seven sites — one per
// stapling-misconfiguration class the world's responder fleet and §5.2
// event schedule can produce, plus a healthy control — advertise the
// Expect-Staple header, a simulated UA fleet visits them hourly, and a
// report collector ingests the resulting violation reports. The rendered
// table answers how long after each misconfiguration's onset telemetry
// would have flagged it.
const (
	expectStapleReportHost = "reports.telemetry.test"
	expectStapleReportURI  = "http://" + expectStapleReportHost + "/expect-staple"
)

func (r *Runner) runExpectStaple(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	w, err := r.freshWorld()
	if err != nil {
		return err
	}
	defer r.release(w)

	// The report log persists every accepted report in arrival order —
	// under StoreDir when configured, else in a scratch directory that
	// lives only for the analysis pass.
	dir := ""
	if r.StoreDir != "" {
		dir = filepath.Join(r.StoreDir, "expectstaple")
	} else {
		tmp, err := os.MkdirTemp("", "expectstaple-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	log, err := store.CreateReportLog(dir)
	if err != nil {
		return err
	}
	collector := expectstaple.NewCollector(
		expectstaple.WithSink(log),
		expectstaple.WithCollectorMetrics(r.registry()),
	)
	w.Network.RegisterHost(expectStapleReportHost, "", collector)

	sites, err := buildExpectStapleSites(w)
	if err != nil {
		return err
	}
	if len(sites) < 5 {
		return fmt.Errorf("core: fleet too small for the expectstaple experiment (%d site classes, need >= 5)", len(sites))
	}

	// The fleet always visits hourly regardless of the world's stride
	// (like the impact campaign): detection latency is the measurement,
	// so the handshake grid must resolve the event schedule's hours.
	stats, err := expectstaple.RunSim(w.Clock, w.Network, sites, expectstaple.SimConfig{
		Seed:    w.Config.Seed,
		Start:   w.Config.Start,
		End:     w.Config.End,
		Stride:  time.Hour,
		Workers: w.Config.BuildWorkers,
	})
	collector.Close()
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Stream the persisted log back through the detection accumulator —
	// the analysis reads what the collector durably wrote, not what the
	// sim thinks it sent.
	det := report.NewStapleDetection(10)
	if err := store.ScanReportLog(dir, func(payload []byte) error {
		rep, err := expectstaple.DecodeReport(payload)
		if err != nil {
			return err
		}
		det.Fold(rep)
		return nil
	}); err != nil {
		return err
	}

	summaries := make([]report.StapleSite, len(sites))
	for i, s := range sites {
		summaries[i] = report.StapleSite{Host: s.Host, Class: s.Class, Onset: s.Onset}
	}
	report.ExpectStaple(r.Out, det, summaries, stats)
	return nil
}

// buildExpectStapleSites assembles one site per misconfiguration class
// from the world's responder fleet. A class whose responder the (small,
// test-sized) fleet does not contain is skipped; the default fleet has
// all seven.
func buildExpectStapleSites(w *world.World) ([]*expectstaple.Site, error) {
	vantages := netsim.PaperVantages()
	byName := func(name string) netsim.Vantage {
		for _, v := range vantages {
			if v.Name == name {
				return v
			}
		}
		return vantages[0]
	}

	find := func(pred func(*world.ResponderInfo) bool) *world.ResponderInfo {
		for _, info := range w.Responders {
			if pred(info) {
				return info
			}
		}
		return nil
	}

	var healthySeen int
	type siteSpec struct {
		class   string
		host    string
		vantage netsim.Vantage
		policy  webserver.Policy
		enforce bool
		revoke  bool
		onset   time.Time
		info    *world.ResponderInfo
	}
	specs := []siteSpec{
		{
			// The responder is dead from day one; Apache drops its
			// cache on every failed refresh, so every handshake after
			// the first is stapleless.
			class:   "always-dead-responder",
			host:    "shop.deadca.test",
			vantage: byName("Oregon"),
			policy:  webserver.ApachePolicy(),
			enforce: true,
			onset:   w.Config.Start,
			info:    find(func(i *world.ResponderInfo) bool { return i.Kind == world.KindAlwaysDead }),
		},
		{
			// The §5.2 Comodo backend outage (Apr 25 19:00–21:00 from
			// Oregon): Apache's hourly refresh fails during the window
			// and the cache is dropped — a transient missing-staple
			// burst exactly bracketing the event.
			class:   "event-outage",
			host:    "news.comodosite.test",
			vantage: byName("Oregon"),
			policy:  webserver.ApachePolicy(),
			onset:   time.Date(2018, 4, 25, 19, 0, 0, 0, time.UTC),
			info:    find(func(i *world.ResponderInfo) bool { return i.Host == "ocsp.comodoca.test" }),
		},
		{
			// Wayport's growing DNS outages end in a permanent failure
			// on May 25; the serve-stale CDN tier keeps stapling its
			// last response long past nextUpdate.
			class:   "outage-staleness",
			host:    "cdn.wayportsite.test",
			vantage: byName("Virginia"),
			policy:  webserver.StaleServingCDNPolicy(),
			onset:   time.Date(2018, 5, 25, 0, 0, 0, 0, time.UTC),
			info:    find(func(i *world.ResponderInfo) bool { return i.Host == "ocsp.wayport.test:2560" }),
		},
		{
			// A persistently malformed responder: Apache caches the
			// garbage body as an error staple and serves it.
			class:   "malformed-responder",
			host:    "api.garbleca.test",
			vantage: byName("Paris"),
			policy:  webserver.ApachePolicy(),
			onset:   w.Config.Start,
			info: find(func(i *world.ResponderInfo) bool {
				// An empty malformed body staples as nothing (missing,
				// not malformed); pick a responder serving actual
				// garbage bytes so the class shows its own signature.
				return i.Kind == world.KindMalformed && len(i.Profile.MalformedWindows) == 0 &&
					i.Profile.Malformed != responder.MalformedNone &&
					i.Profile.Malformed != responder.MalformedEmpty
			}),
		},
		{
			// The certificate was revoked a month before the campaign,
			// but the site staples the (validly signed) Revoked
			// response anyway.
			class:   "revoked-but-served",
			host:    "legacy.revokedsite.test",
			vantage: byName("Virginia"),
			policy:  webserver.NginxPolicy(),
			enforce: true,
			revoke:  true,
			onset:   w.Config.Start,
			info: find(func(i *world.ResponderInfo) bool {
				if i.Kind != world.KindHealthy {
					return false
				}
				healthySeen++
				return healthySeen == 1
			}),
		},
		{
			// A quality-defect responder signing windows that open five
			// minutes in the future: every freshly fetched staple is
			// not yet valid at the handshake that fetched it.
			class:   "expired-window",
			host:    "blog.futuredate.test",
			vantage: byName("Sydney"),
			policy:  webserver.ApachePolicy(),
			onset:   w.Config.Start,
			info: find(func(i *world.ResponderInfo) bool {
				return i.Kind == world.KindQualityDefect && i.Profile.ThisUpdateOffset < 0
			}),
		},
		{
			// Control: healthy responder, correct policy — the fleet
			// should never report it.
			class:   "healthy",
			host:    "www.healthysite.test",
			vantage: byName("Oregon"),
			policy:  webserver.CorrectPolicy(),
			info: find(func(i *world.ResponderInfo) bool {
				if i.Kind != world.KindHealthy {
					return false
				}
				healthySeen++
				return healthySeen == 4 // distinct from the revoked site's pick
			}),
		},
	}

	var sites []*expectstaple.Site
	for _, spec := range specs {
		if spec.info == nil {
			continue
		}
		site, err := buildExpectStapleSite(w, spec.host, spec.class, spec.vantage, spec.policy, spec.enforce, spec.revoke, spec.onset, spec.info)
		if err != nil {
			return nil, fmt.Errorf("core: expectstaple site %s: %w", spec.host, err)
		}
		sites = append(sites, site)
	}
	return sites, nil
}

func buildExpectStapleSite(w *world.World, host, class string, vantage netsim.Vantage, policy webserver.Policy, enforce, revoke bool, onset time.Time, info *world.ResponderInfo) (*expectstaple.Site, error) {
	// Serials are partitioned per responder (SerialBase = index * 1e6);
	// the +500_000 offset keeps site leaves clear of the probe targets.
	serial := big.NewInt(int64(info.Index)*1_000_000 + 500_000)
	leaf, err := info.CA.IssueLeaf(pki.LeafOptions{
		DNSNames:   []string{host},
		NotBefore:  w.Config.Start.AddDate(0, -1, 0),
		NotAfter:   w.Config.End.AddDate(0, 1, 0),
		MustStaple: true,
		Serial:     serial,
	})
	if err != nil {
		return nil, err
	}
	info.DB.AddIssued(serial, leaf.Certificate.NotAfter)
	if revoke {
		info.DB.Revoke(serial, w.Config.Start.AddDate(0, -1, 0), pkixutil.ReasonKeyCompromise)
	}
	fetch, err := expectstaple.NetworkFetcher(w.Network, vantage, w.Clock, leaf)
	if err != nil {
		return nil, err
	}
	engine := webserver.NewEngine(leaf, policy, fetch, w.Clock)
	engine.ExpectStaple = &webserver.ExpectStaple{
		MaxAge:    7 * 24 * time.Hour,
		ReportURI: expectStapleReportURI,
		Enforce:   enforce,
	}
	// Prefetching policies fill their cache now; a failed prefetch is
	// part of the misconfiguration under measurement, not an error.
	_ = engine.Start()
	return &expectstaple.Site{
		Host:    host,
		Class:   class,
		Vantage: vantage,
		Engine:  engine,
		Onset:   onset,
	}, nil
}
