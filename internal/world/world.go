// Package world assembles the full simulated measurement environment the
// reproduction runs against: the responder fleet with its calibrated
// behavior mix (the §5.2 persistent failures and the named outage events,
// the §5.3 malformed-response episodes, and the §5.4 quality-defect
// population), the scheduled network failures on the simulated Internet,
// the certificate population behind the Hourly dataset, and the
// Alexa-domain mapping behind Figure 4. BuildConsistency assembles the CA
// pairs of the §5.4 CRL/OCSP consistency study apart, on their own
// network: only Table 1 and Figure 10 read them.
//
// A World is fully determined by its Config (including the seed):
// rebuilding with the same Config reproduces the same measurements.
package world

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"github.com/netmeasure/muststaple/internal/census"
	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// Config sizes the world. The zero value plus a seed gives the default
// scaled-down reproduction; Full() gives paper-scale parameters.
type Config struct {
	// Seed drives every random assignment.
	Seed int64
	// Responders is the fleet size; 0 means 536 (the Hourly dataset).
	Responders int
	// CertsPerResponder is how many certificates are probed per
	// responder; 0 means 5 (the paper used up to 50).
	CertsPerResponder int
	// Start and End bound the campaign; zero values give the paper's
	// April 25 – September 4, 2018.
	Start, End time.Time
	// Stride is the campaign's scan interval; 0 means 6h (the paper
	// scanned hourly; pass time.Hour for full fidelity).
	Stride time.Duration
	// AlexaDomains sizes the Alexa model; 0 means 100,000 (1:10).
	AlexaDomains int
	// ConsistentCAs is the number of well-behaved CRL/OCSP pairs
	// BuildConsistency builds for the §5.4 study; 0 means 24. The seven
	// discrepant pairs of Table 1 are always generated exactly. Build
	// does not read it.
	ConsistentCAs int
	// SerialsPerConsistentCA is the revoked population per
	// well-behaved CA in BuildConsistency's study; 0 means 200. Build
	// does not read it.
	SerialsPerConsistentCA int
	// Table1Scale divides the exact Table 1 revoked populations
	// (369 … 28,023) that BuildConsistency builds, to keep quick runs
	// quick; 0 means 10. Set 1 for the paper's exact counts. Build does
	// not read it.
	Table1Scale int
	// BuildWorkers bounds the construction worker pool: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial reference build. The
	// built world is identical for every worker count — all key material
	// derives from per-index child seeds, not from build order.
	BuildWorkers int
	// OnDemandSigning disables every responder's signed-response cache
	// (responder.WithOnDemandSigning): each scan is parsed and signed
	// from scratch. Campaigns are byte-identical either way — this is
	// the slow reference configuration the equivalence test and the
	// benchmarks compare against.
	OnDemandSigning bool
	// WorldScale multiplies the corpus axes of the world — the synthetic
	// certificate-census resolution and the Alexa population — without
	// growing the responder fleet: at scale S the census generates S× the
	// records (each representing 1/S as many real certificates, exact at
	// S=10,000) and the Alexa model covers S× the domains (capped at the
	// real 1M). The corpus streams (see census.Corpus), so peak memory
	// does not grow with WorldScale. 0 means 1.
	WorldScale int
}

func (c Config) withDefaults() Config {
	if c.Responders == 0 {
		c.Responders = 536
	}
	if c.CertsPerResponder == 0 {
		c.CertsPerResponder = 5
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2018, 9, 4, 0, 0, 0, 0, time.UTC)
	}
	if c.Stride == 0 {
		c.Stride = 6 * time.Hour
	}
	if c.AlexaDomains == 0 {
		c.AlexaDomains = 100_000
	}
	if c.ConsistentCAs == 0 {
		c.ConsistentCAs = 24
	}
	if c.SerialsPerConsistentCA == 0 {
		c.SerialsPerConsistentCA = 200
	}
	if c.Table1Scale == 0 {
		c.Table1Scale = 10
	}
	if c.WorldScale == 0 {
		c.WorldScale = 1
	}
	return c
}

// Normalized returns the config with every default applied — the exact
// configuration Build uses, for call sites that derive sub-configurations
// (census seeds, scaled Alexa populations) without building a world.
// withDefaults is idempotent, so normalizing twice is harmless.
func (c Config) Normalized() Config { return c.withDefaults() }

// CorpusScaleFactor returns the census scale factor implied by
// WorldScale: the default world generates one record per 10,000 real
// certificates, and each scale step divides that — WorldScale 10,000
// reaches the paper's full 489,580,002-record corpus.
func (c Config) CorpusScaleFactor() int {
	s := c.WorldScale
	if s <= 0 {
		s = 1
	}
	f := 10_000 / s
	if f < 1 {
		f = 1
	}
	return f
}

// ScaledAlexaDomains returns the Alexa population implied by
// AlexaDomains × WorldScale, capped at the real Top-1M (beyond which
// AlexaConfig.ScaleFactor would degenerate).
func (c Config) ScaledAlexaDomains() int {
	d := c.AlexaDomains
	if d == 0 {
		d = 100_000
	}
	s := c.WorldScale
	if s > 1 {
		d *= s
	}
	if d > 1_000_000 {
		d = 1_000_000
	}
	return d
}

// Full returns the paper-scale configuration: hourly scans, 50
// certificates per responder, exact Table 1 populations. Expect a long
// build and run.
func Full(seed int64) Config {
	return Config{
		Seed:              seed,
		CertsPerResponder: 50,
		Stride:            time.Hour,
		AlexaDomains:      1_000_000,
		ConsistentCAs:     1186, // + 7 discrepant = 1,193 CRLs
		Table1Scale:       1,
	}
}

// ResponderKind labels a responder's assigned role for reporting.
type ResponderKind string

const (
	KindHealthy        ResponderKind = "healthy"
	KindAlwaysDead     ResponderKind = "always-dead"
	KindPersistentFail ResponderKind = "persistent-fail"
	KindEventOutage    ResponderKind = "event-outage"
	KindMalformed      ResponderKind = "malformed"
	KindQualityDefect  ResponderKind = "quality-defect"
)

// ResponderInfo is one fleet member with its wiring.
type ResponderInfo struct {
	Index     int
	Host      string
	Kind      ResponderKind
	CA        *pki.CA
	DB        *responder.DB
	Responder *responder.Responder
	Profile   responder.Profile
	// AlexaDomains is how many Alexa domains map to this responder
	// (Figure 4 weights); 0 for responders outside the Alexa set.
	AlexaDomains int
}

// Event documents one scheduled outage for the report.
type Event struct {
	Name       string
	Window     netsim.Window
	Vantages   []string
	Responders []string
}

// World is the assembled environment.
type World struct {
	Config  Config
	Network *netsim.Network
	Clock   *clock.Simulated

	Responders []*ResponderInfo
	// Targets is the Hourly-dataset target set (certificates grouped by
	// responder, §5.1).
	Targets []scanner.Target
	// AlexaTargets carries one weighted target per Alexa-serving
	// responder, for the Figure 4 impact campaign.
	AlexaTargets []scanner.Target
	// Events lists the scheduled outages.
	Events []Event
	// AlexaScale is how many real Alexa domains one modelled domain
	// represents.
	AlexaScale int
	// Corpus is the streaming certificate census behind §4 — generated
	// record by record on each Visit, never materialized. Scaled by
	// Config.WorldScale.
	Corpus *census.Corpus
}

// responderOpts translates world-level configuration into per-responder
// construction options.
func (c Config) responderOpts() []responder.Option {
	if c.OnDemandSigning {
		return []responder.Option{responder.WithOnDemandSigning()}
	}
	return nil
}

// CacheStats sums signed-response cache hits and misses across the
// responder fleet. Misses count requests that were parsed and signed;
// hits were served as stored bytes. The consistency study's responders
// are counted by ConsistencyWorld.CacheStats.
func (w *World) CacheStats() (hits, misses uint64) {
	for _, info := range w.Responders {
		h, m := info.Responder.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// Build assembles a world from cfg. All key material is derived from
// per-index child seeds of cfg.Seed, so equal configs yield
// bytewise-identical certificate hierarchies regardless of BuildWorkers:
// the fleet is constructed concurrently and assembled in index order.
func Build(cfg Config) (*World, error) {
	cfg = cfg.withDefaults()
	w := &World{
		Config:  cfg,
		Network: netsim.New(),
		Clock:   clock.NewSimulated(cfg.Start),
		Corpus:  census.NewCorpus(census.CorpusConfig{Seed: cfg.Seed, ScaleFactor: cfg.CorpusScaleFactor()}),
	}

	if err := w.buildResponders(); err != nil {
		return nil, err
	}
	w.scheduleEvents(hashx.ChildRNG(cfg.Seed, streamEvents, 0))
	if err := w.buildTargets(hashx.ChildRNG(cfg.Seed, streamTargets, 0)); err != nil {
		return nil, err
	}
	w.buildAlexa()
	return w, nil
}

// buildResponders creates the CA + responder fleet with the calibrated
// behavior mix and registers everything on the network. Behavior specs are
// assigned serially (they are one cheap shuffled stream); the expensive
// part — per-responder CA key generation and certificate signing — fans
// out across the worker pool one responder index at a time, each on its
// own child RNG, and the fleet is registered in index order afterwards.
func (w *World) buildResponders() error {
	n := w.Config.Responders
	specs := buildSpecs(n, hashx.ChildRNG(w.Config.Seed, streamSpecs, 0), w.Config)
	infos := make([]*ResponderInfo, n)
	errs := make([]error, n)
	w.Config.runParallel(n, func(i int) {
		infos[i], errs[i] = buildResponder(w.Config, specs[i], w.Clock, i)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w.Responders = infos
	for i, info := range infos {
		w.Network.RegisterHost(info.Host, backendFor(i), ocspserver.NewHandler(info.Responder))
	}
	return nil
}

// buildResponder constructs fleet member i: its CA hierarchy from the
// (streamResponderCA, i) child RNG, its behavior profile from the
// precomputed spec, and the responder serving both. It touches no world
// state, so indices build concurrently and in any order.
func buildResponder(cfg Config, spec profileSpec, clk clock.Clock, i int) (*ResponderInfo, error) {
	host := hostName(i)
	ca, err := pki.NewRootCA(pki.Config{
		Name:       fmt.Sprintf("CA %03d (%s)", i, host),
		Rand:       hashx.ChildRNG(cfg.Seed, streamResponderCA, uint64(i)),
		OCSPURL:    "http://" + host,
		CRLURL:     fmt.Sprintf("http://crl%03d.world.test/ca.crl", i),
		SerialBase: int64(i) * 1_000_000,
		NotBefore:  cfg.Start.AddDate(-2, 0, 0),
	})
	if err != nil {
		return nil, fmt.Errorf("world: responder %d CA: %w", i, err)
	}
	profile := spec.profile
	for c := 0; c < spec.superfluousCertCount; c++ {
		profile.SuperfluousCerts = append(profile.SuperfluousCerts, ca.Certificate)
	}
	db := responder.NewDB()
	r := responder.New(host, ca, db, clk, profile, cfg.responderOpts()...)
	return &ResponderInfo{
		Index: i, Host: host, Kind: spec.kind,
		CA: ca, DB: db, Responder: r, Profile: profile,
	}, nil
}

// buildTargets populates each responder's DB with probe certificates and
// creates the Hourly-dataset targets. Following the paper, every probed
// certificate has at least 30 days of validity beyond the campaign end.
func (w *World) buildTargets(rng *rand.Rand) error {
	expiry := w.Config.End.AddDate(0, 0, 30)
	for _, info := range w.Responders {
		for j := 0; j < w.Config.CertsPerResponder; j++ {
			serial := big.NewInt(int64(info.Index)*1_000_000 + int64(j) + 10)
			info.DB.AddIssued(serial, expiry)
			// A small fraction of probed certificates are revoked,
			// so Good and Revoked responses both flow through the
			// campaign.
			if rng.Float64() < 0.03 {
				info.DB.Revoke(serial, w.Config.Start.AddDate(0, -1, 0), randomReason(rng))
			}
			w.Targets = append(w.Targets, scanner.Target{
				ResponderURL: "http://" + info.Host,
				Responder:    info.Host,
				Issuer:       info.CA.Certificate,
				Serial:       serial,
				Expiry:       expiry,
			})
		}
	}
	return nil
}

// ResponderValidities returns the fleet's configured response validity
// periods (the default where a profile leaves it zero), for analyses that
// sample from the measured world's distribution (internal/vulnwindow).
func (w *World) ResponderValidities() []time.Duration {
	out := make([]time.Duration, 0, len(w.Responders))
	for _, info := range w.Responders {
		v := info.Profile.Validity
		if v == 0 {
			v = 7 * 24 * time.Hour
		}
		out = append(out, v)
	}
	return out
}
