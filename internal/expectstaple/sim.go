package expectstaple

import (
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/browser"
	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/par"
	"github.com/netmeasure/muststaple/internal/webserver"
)

// Site is one Expect-Staple-advertising site under simulation: a
// stapling engine (whose policy and upstream responder define the
// misconfiguration class) serving a Must-Staple certificate.
type Site struct {
	// Host is the site's name — the Report.Host key everything
	// aggregates under.
	Host string
	// Class labels the misconfiguration class for the detection-latency
	// report (e.g. "always-dead-responder", "healthy").
	Class string
	// Vantage is where the site's server lives: its staple refreshes
	// traverse the simulated network from here.
	Vantage netsim.Vantage
	// Engine is the site's stapling server.
	Engine *webserver.Engine
	// Onset is when the misconfiguration begins to bite (the event
	// schedule's outage start, or the simulation start for congenital
	// misconfigurations). Zero for sites expected to stay compliant.
	Onset time.Time
}

// SimConfig parameterizes the simulated user-agent fleet.
type SimConfig struct {
	// Seed drives every per-client draw; same seed, same fleet.
	Seed int64
	// Start and End bound the simulated span; Stride is the handshake
	// cadence (the Hourly dataset's hour).
	Start, End time.Time
	Stride     time.Duration
	// Clients is the fleet size.
	Clients int
	// VisitFraction is the chance a given client visits a given site in
	// a given round.
	VisitFraction float64
	// Workers sizes the worker pool that advances the fleet. Any value
	// produces identical reports: clients are processed in fixed chunks
	// and merged in chunk order, so concurrency never reorders output.
	Workers int
}

func (c *SimConfig) fill() {
	if c.Stride <= 0 {
		c.Stride = time.Hour
	}
	if c.Clients <= 0 {
		c.Clients = 1000
	}
	if c.VisitFraction <= 0 {
		c.VisitFraction = 0.02
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// SimStats summarizes one fleet run.
type SimStats struct {
	Rounds     int
	Handshakes int64 // client visits (each observes the site's staple)
	Reports    int64 // violation reports emitted by noted clients
	Delivered  int64 // reports the collector accepted (HTTP 202)
	Failed     int64 // reports lost in transport or refused
}

// client is one simulated UA: a stable identity, a home vantage, and its
// own Known Expect-Staple Hosts list.
type client struct {
	id      uint64
	vantage netsim.Vantage
	known   *browser.KnownStapleHosts
}

// siteRound is a site's state for one round, computed once and shared by
// every visiting client: the staple the engine would serve, the UA-side
// verdict, and the advertised policy.
type siteRound struct {
	policy    webserver.ExpectStaple
	hasPolicy bool
	eval      Evaluation
}

// RunSim drives the fleet over the simulated span: each round it sets
// the virtual clock, lets every site's engine produce the staple it
// would serve, has the visiting slice of the fleet evaluate it, and
// POSTs the resulting violation reports through the simulated network to
// each site's report-uri. Output is deterministic in (world, cfg.Seed) —
// independent of cfg.Workers — because visits are pure functions of
// (seed, round, client, site), clients live in fixed chunks merged in
// chunk order, and delivery is serialized in that merged order.
func RunSim(clk *clock.Simulated, net *netsim.Network, sites []*Site, cfg SimConfig) (SimStats, error) {
	cfg.fill()
	if len(sites) == 0 {
		return SimStats{}, fmt.Errorf("expectstaple: no sites to simulate")
	}
	vantages := netsim.PaperVantages()
	clients := make([]*client, cfg.Clients)
	for i := range clients {
		draw := hashx.Mix(uint64(cfg.Seed), streamClient, uint64(i))
		clients[i] = &client{
			id:      uint64(i),
			vantage: vantages[int(draw%uint64(len(vantages)))],
			known:   browser.NewKnownStapleHosts(),
		}
	}

	// Fixed chunking: the client→chunk map never depends on the worker
	// count, so neither does the merged report order.
	const chunks = 64
	chunkSize := (cfg.Clients + chunks - 1) / chunks

	var stats SimStats
	rounds := roundTimes(cfg.Start, cfg.End, cfg.Stride)
	stats.Rounds = len(rounds)
	perSite := make([]siteRound, len(sites))
	perChunk := make([][]emitted, chunks)

	for round, t := range rounds {
		clk.Set(t)

		// One handshake observation per site per round. WaitIdle joins
		// any async (Nginx-style) background fetch the handshake kicked
		// off, keeping engine state a pure function of the round.
		for si, site := range sites {
			staple := site.Engine.StapleForHandshake()
			site.Engine.WaitIdle()
			sr := siteRound{}
			if hv, ok := site.Engine.ExpectStapleHeaderValue(); ok {
				// Parse the rendered header — the fleet consumes the
				// site's policy the way a real UA does, through the
				// header bytes.
				p, err := webserver.ParseExpectStaple(hv)
				if err != nil {
					return stats, fmt.Errorf("expectstaple: site %s emitted bad header %q: %v", site.Host, hv, err)
				}
				sr.policy, sr.hasPolicy = p, true
			}
			leaf := site.Engine.Leaf
			sr.eval = Classify(staple, leaf.Certificate, leaf.Issuer.Certificate, t, site.Engine.RefreshFailing())
			perSite[si] = sr
		}

		// Advance the fleet chunk by chunk across the worker pool.
		var handshakes, emittedN atomic.Int64
		par.For(chunks, cfg.Workers, func(ch int) {
			lo := ch * chunkSize
			hi := lo + chunkSize
			if hi > cfg.Clients {
				hi = cfg.Clients
			}
			var reports []emitted
			var visits int64
			for ci := lo; ci < hi; ci++ {
				cl := clients[ci]
				for si, site := range sites {
					draw := hashx.Mix(uint64(cfg.Seed), streamVisit, uint64(round), cl.id, uint64(si))
					if float64(draw>>11)/float64(1<<53) >= cfg.VisitFraction {
						continue
					}
					visits++
					sr := &perSite[si]
					// Report against what the UA already knew, then
					// note the header from this response.
					if noted, ok := cl.known.Lookup(site.Host, t); ok && sr.eval.Violated && noted.ReportURI != "" {
						reports = append(reports, emitted{
							uri: noted.ReportURI,
							rep: Report{
								At:         t,
								Host:       site.Host,
								Vantage:    cl.vantage.Name,
								Client:     cl.id,
								Violation:  sr.eval.Violation,
								Enforce:    noted.Enforce,
								ThisUpdate: sr.eval.ThisUpdate,
								NextUpdate: sr.eval.NextUpdate,
							},
						})
					}
					if sr.hasPolicy {
						cl.known.Note(site.Host, sr.policy, t)
					}
				}
			}
			perChunk[ch] = reports
			handshakes.Add(visits)
			emittedN.Add(int64(len(reports)))
		})
		stats.Handshakes += handshakes.Load()
		stats.Reports += emittedN.Load()

		// Deliver in chunk order, serially: the collector's log then
		// records one canonical arrival order.
		var buf []byte
		for ch := range perChunk {
			for i := range perChunk[ch] {
				e := &perChunk[ch][i]
				buf = AppendReport(buf[:0], &e.rep)
				res, err := net.DoSimple(clients[e.rep.Client].vantage, t, http.MethodPost, e.uri, ContentTypeReport, buf)
				if err != nil || res.Status != http.StatusAccepted {
					stats.Failed++
					continue
				}
				stats.Delivered++
			}
			perChunk[ch] = nil
		}
	}
	return stats, nil
}

// emitted pairs a report with the report-uri from the policy the UA had
// noted when it decided to report.
type emitted struct {
	rep Report
	uri string
}

// roundTimes enumerates the handshake cadence.
func roundTimes(start, end time.Time, stride time.Duration) []time.Time {
	var out []time.Time
	for t := start; !t.After(end); t = t.Add(stride) {
		out = append(out, t)
	}
	return out
}

// Per-phase stream tags for hashx.Mix, mirroring the world builder's
// child-seed discipline (DESIGN.md §8).
const (
	streamClient uint64 = 1 + iota
	streamVisit
)
