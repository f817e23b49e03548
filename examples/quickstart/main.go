// Quickstart: the whole OCSP Must-Staple pipeline in one file.
//
// It builds a CA, issues a Must-Staple certificate, runs an OCSP responder
// over real HTTP, fetches and verifies a response the way a stapling web
// server would, revokes the certificate, and watches the status flip —
// exercising the library's pki, responder, ocsp, and browser layers.
//
// Run it with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/netmeasure/muststaple/internal/browser"
	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/webserver"
)

func main() {
	// The responder's listener comes first: the CA names it in every
	// certificate's OCSP URL.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ln.Close()
	ocspURL := "http://" + ln.Addr().String()

	// 1. A CA and a Must-Staple leaf certificate.
	ca, err := pki.NewRootCA(pki.Config{
		Name:      "Quickstart Root CA",
		OCSPURL:   ocspURL,
		NotBefore: time.Now().Add(-time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:   []string{"www.quickstart.example"},
		NotBefore:  time.Now().Add(-time.Hour),
		NotAfter:   time.Now().AddDate(0, 3, 0),
		MustStaple: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("issued %s (serial %v), Must-Staple extension present: %v\n",
		leaf.Certificate.Subject.CommonName, leaf.Certificate.SerialNumber,
		pki.HasMustStaple(leaf.Certificate))

	// 2. The CA's OCSP responder, over real HTTP.
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	resp := responder.New("quickstart", ca, db, clock.Real{}, responder.Profile{})
	go http.Serve(ln, ocspserver.NewHandler(resp))
	fmt.Printf("OCSP responder listening at %s\n", ocspURL)

	// 3. Fetch a response like a stapling web server would: POST to the
	// URL the certificate names.
	fetch, err := webserver.NewFetcher(&scanner.RealTransport{}, netsim.Vantage{}, clock.Real{}, leaf)
	if err != nil {
		log.Fatal(err)
	}
	staple, single := fetchVerified(fetch, leaf, ca)
	fmt.Printf("fetched OCSP response: status=%v thisUpdate=%s nextUpdate=%s\n",
		single.Status, single.ThisUpdate.Format(time.RFC3339), single.NextUpdate.Format(time.RFC3339))

	// 4. Validate it the way a Must-Staple-respecting browser does.
	verdict := browser.EvaluateStaple(staple, leaf.Certificate, ca.Certificate, time.Now())
	fmt.Printf("browser-side staple verdict: %v\n", verdict)

	// 5. Revoke and watch the verdict change.
	db.Revoke(leaf.Certificate.SerialNumber, time.Now(), pkixutil.ReasonKeyCompromise)
	staple, single = fetchVerified(fetch, leaf, ca)
	fmt.Printf("after revocation: status=%v revokedAt=%s reason=%v\n",
		single.Status, single.RevokedAt.Format(time.RFC3339), single.Reason)
	fmt.Printf("browser-side staple verdict: %v\n",
		browser.EvaluateStaple(staple, leaf.Certificate, ca.Certificate, time.Now()))
}

// fetchVerified fetches a response and checks that it parses, is signed
// by the CA and covers the leaf, returning it with the leaf's entry.
func fetchVerified(fetch webserver.Fetcher, leaf *pki.Leaf, ca *pki.CA) ([]byte, *ocsp.SingleResponse) {
	staple, err := fetch()
	if err != nil {
		log.Fatal(err)
	}
	single, err := ocsp.VerifiedSingle(staple, leaf.Certificate, ca.Certificate)
	if err != nil {
		log.Fatal(err)
	}
	return staple, single
}
