package world

import (
	"fmt"
	"math/big"
	"math/rand"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/consistency"
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
)

// ConsistencyWorld is the population of the §5.4 CRL/OCSP consistency
// study (Table 1, Figure 10): one OCSP responder and one CRL publisher per
// CA pair, on a network of their own, stamping every response and CRL at
// Config.Start. Only the study reads it, so it is built apart from the
// responder fleet (BuildConsistency), and no World carries it.
type ConsistencyWorld struct {
	Config  Config
	Network *netsim.Network
	// Sources are the CRL/OCSP pairs, in job order.
	Sources []consistency.Source

	responders []*responder.Responder
}

// CacheStats sums signed-response cache hits and misses across the
// study's OCSP responders.
func (c *ConsistencyWorld) CacheStats() (hits, misses uint64) {
	for _, r := range c.responders {
		h, m := r.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// BuildConsistency assembles the study population from cfg: the seven
// Table 1 pairs, the Figure 10 time-skew pairs and cfg.ConsistentCAs
// well-behaved ones. Pair i's key material and revocation draws come from
// the (streamConsistency, i) child RNG of cfg.Seed, so the pairs are the
// same at any BuildWorkers count.
func BuildConsistency(cfg Config) (*ConsistencyWorld, error) {
	cfg = cfg.withDefaults()
	c := &ConsistencyWorld{Config: cfg, Network: netsim.New()}
	clk := clock.NewSimulated(cfg.Start)
	jobs := cfg.consistencyJobs()
	results := make([]consistencyResult, len(jobs))
	cfg.runParallel(len(jobs), func(i int) {
		rng := hashx.ChildRNG(cfg.Seed, streamConsistency, uint64(i))
		results[i] = buildConsistencyCA(cfg, clk, rng, jobs[i])
	})
	// Registration and the source list stay serial, in job order.
	for _, res := range results {
		if res.err != nil {
			return nil, res.err
		}
		c.Network.RegisterHost(res.ocspHost, "", ocspserver.NewHandler(res.ocsp))
		c.Network.RegisterHost(res.crlHost, "", res.crl)
		c.Sources = append(c.Sources, res.src)
		c.responders = append(c.responders, res.ocsp)
	}
	return c, nil
}

// table1Spec pins one discrepant CRL/OCSP pair of Table 1. Revoked counts
// are the paper's CRL populations; Good/UnknownAll are the exact
// discrepancies.
type table1Spec struct {
	name       string
	total      int  // revoked serials in the CRL
	good       int  // serials the OCSP responder calls Good
	unknownAll bool // responder says Unknown for every serial
}

var table1Specs = []table1Spec{
	{name: "camerfirma", total: 376, good: 7},
	{name: "quovadis", total: 515, good: 1},
	{name: "startssl-crl", total: 981, good: 1},
	{name: "symantec-ss", total: 28_024, good: 1},
	{name: "twca", total: 123, good: 1},
	{name: "globalsign-alpha", total: 5_375, unknownAll: true},
	{name: "firmaprofesional", total: 11, unknownAll: true},
}

// timeSkewSpec pins the Figure 10 revocation-time discrepancies.
type timeSkewSpec struct {
	name    string
	serials int
	skew    time.Duration
}

var timeSkewSpecs = []timeSkewSpec{
	// ocsp.msocsp.com: every revocation time behind the CRL by 7h–9d.
	{name: "msocsp", serials: 30, skew: 9 * time.Hour},
	// The 14.7% negative tail: OCSP earlier than the CRL.
	{name: "earlyocsp", serials: 7, skew: -8 * time.Hour},
	// The >4-year extreme of Figure 10's long tail.
	{name: "ancientskew", serials: 3, skew: 4*365*24*time.Hour + 30*24*time.Hour},
}

// consistencyJob describes one CRL/OCSP pair to construct: everything a
// worker needs, with no shared mutable state.
type consistencyJob struct {
	name    string
	revoked int
	profile responder.Profile
	// mutate, if non-nil, edits the profile once the serial list is known.
	mutate func([]*big.Int, *responder.Profile)
	// explicitReasons re-revokes every unexpired entry with an explicit
	// reason code (the CRL carries it, the responder drops it).
	explicitReasons bool
}

// consistencyResult is one constructed pair, handed back to the serial
// assembly loop for network registration.
type consistencyResult struct {
	src      consistency.Source
	ocsp     *responder.Responder
	crl      *responder.CRLPublisher
	ocspHost string
	crlHost  string
	err      error
}

// consistencyJobs lays out the §5.4 study population in a fixed order: the
// seven exact Table 1 pairs (scaled by Table1Scale), the pinned time-skew
// pairs, then the well-behaved remainder. The slice index doubles as the
// pair's child-seed index, so each job is reproducible in isolation.
func (c Config) consistencyJobs() []consistencyJob {
	scale := c.Table1Scale
	var jobs []consistencyJob

	for _, spec := range table1Specs {
		// Small rows (firmaprofesional's 11) stay exact at any scale;
		// large populations are divided, never below the exact Good
		// discrepancy count.
		total := spec.total
		if total > 50 {
			total /= scale
		}
		if total < spec.good {
			total = spec.good
		}
		spec := spec
		jobs = append(jobs, consistencyJob{
			name:    spec.name,
			revoked: total,
			mutate: func(serials []*big.Int, p *responder.Profile) {
				p.StatusOverrides = map[string]ocsp.CertStatus{}
				if spec.unknownAll {
					for _, s := range serials {
						p.StatusOverrides[s.String()] = ocsp.Unknown
					}
					return
				}
				for _, s := range serials[:spec.good] {
					p.StatusOverrides[s.String()] = ocsp.Good
				}
			},
		})
	}

	for _, spec := range timeSkewSpecs {
		jobs = append(jobs, consistencyJob{
			name:    spec.name,
			revoked: spec.serials,
			profile: responder.Profile{RevocationTimeSkew: spec.skew},
		})
	}

	// The well-behaved remainder. Roughly 15% of pairs differ only in
	// reason codes — the CRL has one, the OCSP responder drops it.
	for i := 0; i < c.ConsistentCAs; i++ {
		job := consistencyJob{
			name:    fmt.Sprintf("consistent%03d", i),
			revoked: c.SerialsPerConsistentCA,
		}
		if float64(i) < 0.15*float64(c.ConsistentCAs) {
			job.profile.DropReasonCodes = true
			job.explicitReasons = true
		}
		jobs = append(jobs, job)
	}
	return jobs
}

// buildConsistencyCA creates one CRL/OCSP pair: a CA, a database with
// job.revoked unexpired revoked serials plus ~1.8× expired revoked entries
// (so the study's expiry cross-referencing step has real work to do, as in
// the paper's 2,041,345 → 728,261 reduction), an OCSP responder with the
// job's profile, and a CRL publisher, both on clk. It touches no state
// shared with other jobs, so jobs run concurrently.
func buildConsistencyCA(cfg Config, clk clock.Clock, rng *rand.Rand, job consistencyJob) consistencyResult {
	ocspHost := "ocsp." + job.name + ".test"
	crlHost := "crl." + job.name + ".test"
	ca, err := pki.NewRootCA(pki.Config{
		Name:      "Consistency CA " + job.name,
		Rand:      rng,
		OCSPURL:   "http://" + ocspHost,
		CRLURL:    "http://" + crlHost + "/ca.crl",
		NotBefore: cfg.Start.AddDate(-3, 0, 0),
	})
	if err != nil {
		return consistencyResult{err: err}
	}
	db := responder.NewDB()

	base := int64(1000)
	var serials []*big.Int
	for i := 0; i < job.revoked; i++ {
		serial := big.NewInt(base + int64(i))
		expiry := cfg.Start.AddDate(1, 0, 0)
		revokedAt := cfg.Start.AddDate(0, 0, -1-rng.Intn(300)).Truncate(time.Second)
		db.AddIssued(serial, expiry)
		db.Revoke(serial, revokedAt, pkixutil.ReasonAbsent)
		serials = append(serials, serial)
	}
	// Expired revoked entries: present in the CRL, filtered by the
	// study's cross-referencing.
	expiredCount := job.revoked * 9 / 5
	for i := 0; i < expiredCount; i++ {
		serial := big.NewInt(base + int64(job.revoked) + int64(i))
		db.AddIssued(serial, cfg.Start.AddDate(0, -1-rng.Intn(12), 0))
		db.Revoke(serial, cfg.Start.AddDate(-1, 0, 0), pkixutil.ReasonAbsent)
	}
	if job.explicitReasons {
		// Re-revoke with explicit reasons so the CRL side carries codes
		// the responder will drop.
		for _, rec := range db.RevokedEntries() {
			db.Revoke(rec.Serial, rec.RevokedAt, pkixutil.ReasonKeyCompromise)
		}
	}

	profile := job.profile
	if job.mutate != nil {
		job.mutate(serials, &profile)
	}

	return consistencyResult{
		src: consistency.Source{
			Name:      job.name,
			Issuer:    ca.Certificate,
			CRLURL:    "http://" + crlHost + "/ca.crl",
			OCSPURL:   "http://" + ocspHost,
			Responder: ocspHost,
			Expiry: func(serial *big.Int) (time.Time, bool) {
				rec, ok := db.Lookup(serial)
				if !ok {
					return time.Time{}, false
				}
				return rec.Expiry, true
			},
		},
		ocsp:     responder.New(ocspHost, ca, db, clk, profile, cfg.responderOpts()...),
		crl:      responder.NewCRLPublisher(ca, db, clk),
		ocspHost: ocspHost,
		crlHost:  crlHost,
	}
}
