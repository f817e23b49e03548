package browser

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/webserver"
)

// Table2Row is one measured row of the browser matrix.
type Table2Row struct {
	Behavior Behavior
	// RequestsStaple: when the server staples, the client receives the
	// response — proof it solicited one (row 1 of Table 2).
	RequestsStaple bool
	// RespectsMustStaple: the client rejected a Must-Staple certificate
	// served without a staple (row 2).
	RespectsMustStaple bool
	// SendsOwnOCSP: having accepted, the client made its own OCSP
	// request (row 3; "-" in the paper for rejecting browsers, rendered
	// here as false).
	SendsOwnOCSP bool
}

// Harness is the §6 test environment: a domain with a Must-Staple
// certificate, a server that can be configured to staple or not, and an
// instrumented OCSP responder, served by the OCSP handler on a simulated
// network, that counts direct client lookups.
type Harness struct {
	Clock *clock.Simulated
	CA    *pki.CA
	Leaf  *pki.Leaf

	// fetch reaches the harness responder: the server's prefetch and the
	// clients' own lookups share it.
	fetch    webserver.Fetcher
	ocspHits atomic.Int64
	staple   []byte
}

// NewHarness builds the environment at virtual time start.
func NewHarness(start time.Time) (*Harness, error) {
	clk := clock.NewSimulated(start)
	ca, err := pki.NewRootCA(pki.Config{Name: "Browser Harness CA", OCSPURL: "http://ocsp.harness.test"})
	if err != nil {
		return nil, err
	}
	// The experiment certificate: Must-Staple, like the Let's Encrypt
	// certificate the authors purchased, with no CRL (footnote 24).
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:   []string{"muststaple.harness.test"},
		NotBefore:  start.AddDate(0, -1, 0),
		MustStaple: true,
		OmitCRL:    true,
	})
	if err != nil {
		return nil, err
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	n := netsim.New()
	n.RegisterHost("ocsp.harness.test", "", ocspserver.NewHandler(responder.New("ocsp.harness.test", ca, db, clk, responder.Profile{ThisUpdateOffset: time.Minute})))
	fetch, err := webserver.NewFetcher(n, netsim.Vantage{}, clk, leaf)
	if err != nil {
		return nil, err
	}
	h := &Harness{Clock: clk, CA: ca, Leaf: leaf, fetch: fetch}

	// Pre-fetch a valid staple for the stapling-enabled experiments.
	if h.staple, err = fetch(); err != nil {
		return nil, fmt.Errorf("browser: harness prefetch: %w", err)
	}
	return h, nil
}

// OCSPLookups returns how many direct (non-stapled) OCSP lookups clients
// have made against the harness responder.
func (h *Harness) OCSPLookups() int64 { return h.ocspHits.Load() }

// fallback performs a client's own OCSP lookup against the harness
// responder, counting it, and checks the answer as a client would.
func (h *Harness) fallback(leaf, issuer *x509.Certificate) error {
	h.ocspHits.Add(1)
	der, err := h.fetch()
	if err != nil {
		return err
	}
	_, err = ocsp.VerifiedSingle(der, leaf, issuer)
	return err
}

// serverConfig builds the TLS server side, stapling or withholding.
func (h *Harness) serverConfig(withStaple bool) *tls.Config {
	cert := tls.Certificate{
		Certificate: [][]byte{h.Leaf.Certificate.Raw, h.CA.Certificate.Raw},
		PrivateKey:  h.Leaf.Key,
		Leaf:        h.Leaf.Certificate,
	}
	if withStaple {
		cert.OCSPStaple = h.staple
	}
	return &tls.Config{Certificates: []tls.Certificate{cert}}
}

// connect runs one handshake for behavior against a server that does or
// does not staple (SSLUseStapling off — the paper's §6 methodology).
func (h *Harness) connect(b Behavior, withStaple bool) (Result, error) {
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	defer srvConn.Close()

	srv := tls.Server(srvConn, h.serverConfig(withStaple))
	srvErr := make(chan error, 1)
	go func() { srvErr <- srv.Handshake() }()

	client := &Client{
		Behavior:     b,
		Root:         h.CA.Certificate,
		Now:          h.Clock.Now,
		FallbackOCSP: h.fallback,
	}
	res, err := client.Connect(cliConn, "muststaple.harness.test")
	if err != nil {
		return res, err
	}
	if herr := <-srvErr; herr != nil {
		return res, herr
	}
	return res, nil
}

// RunTable2 measures every behavior: one handshake with stapling enabled
// (does the client solicit and receive a staple?) and one with stapling
// disabled on a Must-Staple certificate (does it hard-fail? does it fall
// back to its own OCSP query?).
func (h *Harness) RunTable2(behaviors []Behavior) ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range behaviors {
		withRes, err := h.connect(b, true)
		if err != nil {
			return nil, fmt.Errorf("browser: %s (stapled): %w", b, err)
		}
		before := h.OCSPLookups()
		withoutRes, err := h.connect(b, false)
		if err != nil {
			return nil, fmt.Errorf("browser: %s (staple withheld): %w", b, err)
		}
		rows = append(rows, Table2Row{
			Behavior:           b,
			RequestsStaple:     withRes.GotStaple && withRes.Staple == StapleGood,
			RespectsMustStaple: !withoutRes.Accepted,
			SendsOwnOCSP:       h.OCSPLookups() > before,
		})
	}
	return rows, nil
}
