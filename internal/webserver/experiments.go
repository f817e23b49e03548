package webserver

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

// HandshakeStaple performs one real TLS handshake against cfg (over an
// in-memory pipe) and returns the stapled OCSP response the server
// presented, if any. The client trusts root and validates at virtual time
// at, so campaigns in 2018 virtual time work regardless of the wall clock.
func HandshakeStaple(cfg *tls.Config, root *x509.Certificate, serverName string, at time.Time) ([]byte, error) {
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	defer srvConn.Close()

	srv := tls.Server(srvConn, cfg)
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Handshake() }()

	pool := x509.NewCertPool()
	pool.AddCert(root)
	cli := tls.Client(cliConn, &tls.Config{
		RootCAs:    pool,
		ServerName: serverName,
		Time:       func() time.Time { return at },
	})
	if err := cli.Handshake(); err != nil {
		return nil, fmt.Errorf("webserver: client handshake: %w", err)
	}
	if err := <-srvErr; err != nil {
		return nil, fmt.Errorf("webserver: server handshake: %w", err)
	}
	return cli.ConnectionState().OCSPResponse, nil
}

// ExperimentResult is one row of Table 3, measured (not assumed) by
// driving real handshakes against an engine running the policy.
type ExperimentResult struct {
	Policy string

	// PrefetchesResponse: did the server fetch an OCSP response before
	// the first client connected? (Table 3 row 1: ✗ for both.)
	PrefetchesResponse bool
	// FirstClientPaused: the first client's handshake blocked on the
	// fetch (Apache's behavior when not prefetching).
	FirstClientPaused bool
	// FirstClientGotStaple: whether the very first client received a
	// stapled response at all (✗ for Nginx).
	FirstClientGotStaple bool
	// CachesResponses: a second handshake inside the validity window
	// triggered no new fetch (row 2: ✓ for both).
	CachesResponses bool
	// RespectsNextUpdate: after the cached response expired, the server
	// did not staple the expired bytes (row 3: ✗ Apache, ✓ Nginx).
	RespectsNextUpdate bool
	// RetainsOnError: with the responder down after a valid fetch, the
	// server kept stapling the old valid response (row 4: ✗ Apache,
	// ✓ Nginx).
	RetainsOnError bool
}

// experimentFixture wires a CA and its leaf to a responder served by the
// OCSP handler at the leaf's AIA host on a simulated network, where an
// outage is a netsim rule.
type experimentFixture struct {
	clk   *clock.Simulated
	net   *netsim.Network
	leaf  *pki.Leaf
	root  *x509.Certificate
	fetch Fetcher
}

// experimentOCSPHost is the fixtures' responder host, named in each leaf's
// AIA.
const experimentOCSPHost = "ocsp.exp.test"

func newExperimentFixture(validity time.Duration) (*experimentFixture, error) {
	t0 := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(t0)
	ca, err := pki.NewRootCA(pki.Config{Name: "Server Experiment CA", OCSPURL: "http://" + experimentOCSPHost})
	if err != nil {
		return nil, err
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:   []string{"www.exp.test"},
		NotBefore:  t0.AddDate(0, -1, 0),
		MustStaple: true,
	})
	if err != nil {
		return nil, err
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	// A short thisUpdate margin keeps short-validity responses fresh at
	// issuance (the default 1-hour backdating would make a 30-minute
	// response expired at birth).
	resp := responder.New(experimentOCSPHost, ca, db, clk, responder.Profile{Validity: validity, ThisUpdateOffset: time.Minute})
	n := netsim.New()
	n.RegisterHost(experimentOCSPHost, "", ocspserver.NewHandler(resp))
	// The server under test is the only client, so one unnamed vantage.
	fetch, err := NewFetcher(n, netsim.Vantage{}, clk, leaf)
	if err != nil {
		return nil, err
	}
	return &experimentFixture{clk: clk, net: n, leaf: leaf, root: ca.Certificate, fetch: fetch}, nil
}

// RunExperiments measures one policy through the four Table 3 experiments.
func RunExperiments(policy Policy) (*ExperimentResult, error) {
	res := &ExperimentResult{Policy: policy.Name}

	// Experiment 1+2: prefetch, first-client behavior, caching.
	fx, err := newExperimentFixture(6 * time.Hour)
	if err != nil {
		return nil, err
	}
	eng := NewEngine(fx.leaf, policy, fx.fetch, fx.clk)
	if err := eng.Start(); err != nil {
		return nil, err
	}
	res.PrefetchesResponse = eng.FetchCount() > 0

	cfg, err := eng.TLSConfig()
	if err != nil {
		return nil, err
	}
	before := eng.FetchCount()
	staple1, err := HandshakeStaple(cfg, fx.root, "www.exp.test", fx.clk.Now())
	if err != nil {
		return nil, err
	}
	eng.WaitIdle()
	res.FirstClientGotStaple = len(staple1) > 0
	// "Paused" = the fetch happened inside the first handshake and the
	// client still got a staple without prefetching.
	res.FirstClientPaused = !res.PrefetchesResponse && res.FirstClientGotStaple && eng.FetchCount() > before

	// Second client, still within validity: must be served from cache.
	fx.clk.Advance(time.Minute)
	countBefore := eng.FetchCount()
	staple2, err := HandshakeStaple(cfg, fx.root, "www.exp.test", fx.clk.Now())
	if err != nil {
		return nil, err
	}
	res.CachesResponses = len(staple2) > 0 && eng.FetchCount() == countBefore

	// Experiment 3: respect of nextUpdate. Short-validity responses
	// (30 min) with a healthy upstream: after the staple expires — but
	// before Apache's one-hour response cache rolls over — does the
	// server keep stapling the expired bytes (Apache Bugzilla #62400)
	// or fetch a fresh response (Nginx)? Detected by parsing what the
	// client actually received in the handshake.
	fx3, err := newExperimentFixture(30 * time.Minute)
	if err != nil {
		return nil, err
	}
	eng3 := NewEngine(fx3.leaf, policy, fx3.fetch, fx3.clk)
	if err := eng3.Start(); err != nil {
		return nil, err
	}
	cfg3, err := eng3.TLSConfig()
	if err != nil {
		return nil, err
	}
	if _, err := HandshakeStaple(cfg3, fx3.root, "www.exp.test", fx3.clk.Now()); err != nil {
		return nil, err
	}
	eng3.WaitIdle()
	fx3.clk.Advance(40 * time.Minute) // past nextUpdate, inside Apache's cache lifetime
	stapleAfterExpiry, err := HandshakeStaple(cfg3, fx3.root, "www.exp.test", fx3.clk.Now())
	if err != nil {
		return nil, err
	}
	eng3.WaitIdle()
	res.RespectsNextUpdate = !stapleIsExpired(stapleAfterExpiry, fx3.leaf, fx3.clk.Now())

	// Experiment 4: retain-on-error. Fresh fixture, long validity; kill
	// the upstream, force a refresh attempt, and see whether the old
	// (still valid) staple survives.
	fx4, err := newExperimentFixture(24 * time.Hour)
	if err != nil {
		return nil, err
	}
	eng4 := NewEngine(fx4.leaf, policy, fx4.fetch, fx4.clk)
	if err := eng4.Start(); err != nil {
		return nil, err
	}
	cfg4, err := eng4.TLSConfig()
	if err != nil {
		return nil, err
	}
	if _, err := HandshakeStaple(cfg4, fx4.root, "www.exp.test", fx4.clk.Now()); err != nil {
		return nil, err
	}
	eng4.WaitIdle()
	fx4.net.AddRule(&netsim.Rule{Host: experimentOCSPHost, Kind: netsim.FailTCP, Windows: []netsim.Window{{From: fx4.clk.Now()}}})
	// Advance past the refresh trigger (Apache's cache lifetime) but
	// keep the response valid.
	fx4.clk.Advance(90 * time.Minute)
	stapleAfterError, err := HandshakeStaple(cfg4, fx4.root, "www.exp.test", fx4.clk.Now())
	if err != nil {
		return nil, err
	}
	eng4.WaitIdle()
	res.RetainsOnError = len(stapleAfterError) > 0
	return res, nil
}

// stapleIsExpired reports whether a client checking a stapled response
// for leaf at now rejects it: ocsp.VerifiedSingle fails, or the response
// it finds is outside its validity window. An unusable staple is as bad
// as an expired one; a missing staple is neither.
func stapleIsExpired(staple []byte, leaf *pki.Leaf, now time.Time) bool {
	if len(staple) == 0 {
		return false
	}
	single, err := ocsp.VerifiedSingle(staple, leaf.Certificate, leaf.Issuer.Certificate)
	return err != nil || !single.ValidAt(now)
}

// Table3 runs the full experiment matrix over the modelled policies.
func Table3() ([]*ExperimentResult, error) {
	var out []*ExperimentResult
	for _, p := range []Policy{ApachePolicy(), NginxPolicy(), CorrectPolicy()} {
		r, err := RunExperiments(p)
		if err != nil {
			return nil, fmt.Errorf("webserver: %s: %w", p.Name, err)
		}
		out = append(out, r)
	}
	return out, nil
}
