// Muststaple-lint: a readiness linter for OCSP Must-Staple deployment.
//
// Given a TLS endpoint (-connect host:port) it performs a real handshake
// and reports everything §6 of the paper says a Must-Staple-respecting
// client will check: does the certificate carry the TLS-Feature extension,
// did the server staple a response, does the staple parse, verify, cover
// the right serial, and sit inside its validity window — plus §5.4-style
// quality warnings (blank nextUpdate, zero thisUpdate margin, oversized
// validity, superfluous certificates).
//
// Without -connect, it lints four built-in demonstration servers (a
// correct one, one that staples nothing, one stapling an expired response
// and one stapling a low-quality response).
//
// Run it with:
//
//	go run ./examples/muststaple-lint [-connect example.com:443]
package main

import (
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"log"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/webserver"
)

func main() {
	connect := flag.String("connect", "", "TLS endpoint to lint (host:port); empty runs the built-in demos")
	flag.Parse()

	if *connect != "" {
		conn, err := tls.Dial("tcp", *connect, &tls.Config{})
		if err != nil {
			log.Fatalf("dial %s: %v", *connect, err)
		}
		defer conn.Close()
		state := conn.ConnectionState()
		if len(state.PeerCertificates) < 2 {
			log.Fatal("server sent no issuer certificate")
		}
		lint(*connect, state.PeerCertificates[0], state.PeerCertificates[1], state.OCSPResponse, time.Now())
		return
	}

	runDemos()
}

// lint prints the Must-Staple readiness report for one observed handshake.
func lint(name string, leaf, issuer *x509.Certificate, staple []byte, now time.Time) {
	fmt.Printf("--- %s ---\n", name)
	mustStaple := pki.HasMustStaple(leaf)
	check("certificate carries OCSP Must-Staple (TLS-Feature status_request)", mustStaple)
	check("certificate advertises an OCSP responder (AIA)", pki.SupportsOCSP(leaf))

	check("server stapled an OCSP response", len(staple) > 0)
	if len(staple) == 0 {
		if mustStaple {
			fmt.Println("  ✗ VERDICT: a Must-Staple-respecting client (Firefox) hard-fails this handshake")
		}
		fmt.Println()
		return
	}
	single, err := ocsp.VerifiedSingle(staple, leaf, issuer)
	check("staple parses, verifies, and covers this certificate", err == nil)
	check("staple is inside its validity window (thisUpdate to nextUpdate)", err == nil && single.ValidAt(now))
	check("staple reports Good", err == nil && single.Status == ocsp.Good)

	// §5.4 quality warnings.
	if resp, err := ocsp.ParseResponse(staple); err == nil && len(resp.Responses) > 0 {
		single := resp.Responses[0]
		warn("nextUpdate is blank: the response never expires and clients may cache it forever",
			!single.HasNextUpdate())
		if single.HasNextUpdate() {
			validity := single.NextUpdate.Sub(single.ThisUpdate)
			warn(fmt.Sprintf("validity period is %v (>31 days): a revocation could stay invisible that long", validity),
				validity > 31*24*time.Hour)
		}
		warn("thisUpdate has no clock-skew margin: clients with slow clocks will reject the staple",
			now.Sub(single.ThisUpdate) < time.Minute && !single.ThisUpdate.After(now))
		warn("thisUpdate is in the future: clients will reject the staple as not yet valid",
			single.ThisUpdate.After(now))
		warn(fmt.Sprintf("%d certificates embedded in the response (superfluous beyond a delegated signer)", len(resp.Certificates)),
			len(resp.Certificates) > 1)
	}
	fmt.Println()
}

func check(what string, ok bool) {
	mark := "✓"
	if !ok {
		mark = "✗"
	}
	fmt.Printf("  %s %s\n", mark, what)
}

func warn(what string, bad bool) {
	if bad {
		fmt.Printf("  ! %s\n", what)
	}
}

// runDemos lints three in-process servers with contrasting behavior.
func runDemos() {
	start := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	clk := clock.NewSimulated(start)
	ca, err := pki.NewRootCA(pki.Config{Name: "Lint Demo CA", OCSPURL: "http://ocsp.lint.example", NotBefore: start.AddDate(-1, 0, 0)})
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:   []string{"lint.example"},
		NotBefore:  start.AddDate(0, -1, 0),
		MustStaple: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)

	freshStaple := mustStapleBytes(ca, db, clk, leaf, responder.Profile{ThisUpdateOffset: time.Minute})
	lint("correctly stapling server", leaf.Certificate, ca.Certificate, freshStaple, clk.Now())
	lint("server withholding the staple (SSLUseStapling off)", leaf.Certificate, ca.Certificate, nil, clk.Now())

	// An expired staple: fetched now, linted a week later.
	expired := mustStapleBytes(ca, db, clk, leaf, responder.Profile{Validity: 24 * time.Hour, ThisUpdateOffset: time.Minute})
	lint("server stapling an expired response (Apache bug #62400)", leaf.Certificate, ca.Certificate, expired, clk.Now().Add(7*24*time.Hour))

	// A blank-nextUpdate staple with no margin: quality warnings.
	sloppy := mustStapleBytes(ca, db, clk, leaf, responder.Profile{BlankNextUpdate: true, NoDefaultMargin: true, SuperfluousCerts: []*x509.Certificate{ca.Certificate, ca.Certificate}})
	lint("server stapling a low-quality (blank nextUpdate, zero margin) response", leaf.Certificate, ca.Certificate, sloppy, clk.Now())
}

// mustStapleBytes fetches leaf's staple as a stapling server would, from a
// responder signing with profile behind the OCSP handler at the leaf's AIA
// host on a simulated network.
func mustStapleBytes(ca *pki.CA, db *responder.DB, clk clock.Clock, leaf *pki.Leaf, profile responder.Profile) []byte {
	n := netsim.New()
	n.RegisterHost("ocsp.lint.example", "", ocspserver.NewHandler(responder.New("lint", ca, db, clk, profile)))
	fetch, err := webserver.NewFetcher(n, netsim.Vantage{}, clk, leaf)
	if err != nil {
		log.Fatal(err)
	}
	der, err := fetch()
	if err != nil {
		log.Fatal(err)
	}
	return der
}
