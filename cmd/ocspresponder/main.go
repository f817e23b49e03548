// Command ocspresponder runs a standalone RFC 6960 OCSP responder (plus a
// CRL endpoint) over real HTTP for a freshly generated CA — the test
// harness the paper's authors promise to release (§8): point any OCSP
// client at it and exercise both correct behavior and, via flags, every
// misbehavior the measurement study catalogues.
//
// The serving tier is internal/ocspserver: RFC 5019 GETs, cache headers,
// request hardening, h2c, and a /debug/vars JSON endpoint exposing the
// signed-response cache statistics and request counters.
//
// Misbehavior flags come straight from responder.Misbehaviors() — each
// flag is one responder.ProfileOption, so the set below tracks the defect
// table automatically.
//
// On startup it prints the CA certificate and one issued leaf (PEM) so a
// client has something to ask about.
//
// Usage:
//
//	ocspresponder [-listen :8889] [-validity 168h] [-blank-next-update]
//	              [-zero-margin] [-malformed zero|empty|js] [-bad-signature]
//	              [-serial-mismatch] [-extra-serials 19] [-error-status trylater]
//	              [-revoke-leaf] [-cached] [-update-interval 1h]
//	              [-per-scan-signing] [-cpuprofile cpu.out] [-memprofile mem.out]
package main

import (
	"context"
	"encoding/pem"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/profiling"
	"github.com/netmeasure/muststaple/internal/responder"
)

func main() {
	listen := flag.String("listen", ":8889", "listen address")
	revokeLeaf := flag.Bool("revoke-leaf", false, "revoke the issued leaf (keyCompromise)")
	perScanSigning := flag.Bool("per-scan-signing", false, "sign every response on demand, bypassing the signed-response cache")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	misbehave := responder.BindMisbehaviorFlags(flag.CommandLine)
	flag.Parse()

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProfiling()

	profile := misbehave.Profile()
	if profile.Validity == 0 {
		profile.Validity = 7 * 24 * time.Hour
	}

	ca, leaf, err := newCA(*listen, os.Stdout)
	if err != nil {
		fail("%v", err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	if *revokeLeaf {
		db.Revoke(leaf.Certificate.SerialNumber, time.Now().Add(-30*time.Minute), pkixutil.ReasonKeyCompromise)
	}

	var opts []responder.Option
	if *perScanSigning {
		opts = append(opts, responder.WithOnDemandSigning())
	}
	r := responder.New("localhost", ca, db, clock.Real{}, profile, opts...)
	crlPub := responder.NewCRLPublisher(ca, db, clock.Real{})

	reg := metrics.NewRegistry()
	handler := ocspserver.NewHandler(r, ocspserver.WithMetrics(reg))
	srv := ocspserver.NewServer(handler,
		ocspserver.WithRoute("/ca.crl", crlPub),
		ocspserver.WithRoute("/debug/vars", ocspserver.NewDebugVars(reg, r)),
	)

	// The server runs until interrupted; flush any requested profiles and
	// drain in-flight requests on SIGINT so -cpuprofile/-memprofile
	// capture the served traffic.
	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	go func() {
		<-interrupt
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		stopProfiling()
		os.Exit(0)
	}()
	if err := srv.Start(*listen); err != nil {
		stopProfiling()
		fail("listen: %v", err)
	}
	select {}
}

// newCA creates the CA and its one Must-Staple leaf, whose AIA names the
// responder at listen, and prints both as PEM to out, followed by a
// banner naming the endpoints at that same URL.
func newCA(listen string, out io.Writer) (*pki.CA, *pki.Leaf, error) {
	// A client reaches a bare ":port" listener at localhost.
	base := "http://" + listen
	if strings.HasPrefix(listen, ":") {
		base = "http://localhost" + listen
	}
	ca, err := pki.NewRootCA(pki.Config{
		Name:      "Standalone OCSP Test CA",
		OCSPURL:   base,
		NotBefore: time.Now().Add(-time.Hour),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("create CA: %w", err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:   []string{"test.localhost"},
		NotBefore:  time.Now().Add(-time.Hour),
		NotAfter:   time.Now().AddDate(0, 3, 0),
		MustStaple: true,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("issue leaf: %w", err)
	}
	pem.Encode(out, &pem.Block{Type: "CERTIFICATE", Bytes: ca.Certificate.Raw})
	pem.Encode(out, &pem.Block{Type: "CERTIFICATE", Bytes: leaf.Certificate.Raw})
	fmt.Fprintf(out, "# CA above, leaf below. leaf serial: %v\n", leaf.Certificate.SerialNumber)
	fmt.Fprintf(out, "# OCSP endpoint: %s/  CRL: %s/ca.crl\n", base, base)
	fmt.Fprintf(out, "# stats: %s/debug/vars\n", base)
	fmt.Fprintf(out, "# try: openssl ocsp -issuer ca.pem -serial %v -url %s -resp_text\n",
		leaf.Certificate.SerialNumber, base)
	return ca, leaf, nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocspresponder: "+format+"\n", args...)
	os.Exit(1)
}
