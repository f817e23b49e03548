// Stapling-server: a *correct* OCSP-stapling HTTPS server — the §8
// recommendation made runnable: prefetch responses before the first
// client, cache them, respect nextUpdate, and retain the last valid
// response across responder outages.
//
// It generates a CA + Must-Staple certificate, runs the CA's OCSP
// responder on one port, and serves HTTPS with live stapling on another.
// The demo then takes the responder down and lets 90 minutes of simulated
// time pass, so the engine's hourly refresh fails and the retained staple
// is what the second client gets.
//
// Run it with:
//
//	go run ./examples/stapling-server
//
// or serve on the wall clock until interrupted:
//
//	go run ./examples/stapling-server -demo=false
//	curl -vk https://localhost:8443/   # look for "OCSP response: ..." in the TLS details
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/netmeasure/muststaple/internal/browser"
	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/webserver"
)

func main() {
	httpsAddr := flag.String("https", "localhost:8443", "HTTPS listen address")
	ocspAddr := flag.String("ocsp", "localhost:8889", "OCSP responder listen address")
	demo := flag.Bool("demo", true, "run the self-driving demo (handshake + simulated outage) and exit")
	flag.Parse()

	// The demo's responder, engine and client share one simulated clock,
	// so that it can skip past the engine's hourly refresh.
	sim := clock.NewSimulated(time.Now())
	var clk clock.Clock = sim
	if !*demo {
		clk = clock.Real{}
	}

	ocspLn, err := net.Listen("tcp", *ocspAddr)
	if err != nil {
		log.Fatal(err)
	}
	ocspURL := "http://" + ocspLn.Addr().String()

	// The CA and its Must-Staple certificate.
	ca, err := pki.NewRootCA(pki.Config{
		Name:      "Stapling Example CA",
		OCSPURL:   ocspURL,
		NotBefore: clk.Now().Add(-time.Hour),
	})
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:   []string{"localhost"},
		NotBefore:  clk.Now().Add(-time.Hour),
		NotAfter:   clk.Now().AddDate(0, 3, 0),
		MustStaple: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The CA's responder on its own listener, signing responses that
	// outlive the engine's one-hour refresh.
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	ocspResponder := responder.New("localhost", ca, db, clk, responder.Profile{
		Validity:         4 * time.Hour,
		ThisUpdateOffset: time.Minute,
	})
	go http.Serve(ocspLn, ocspserver.NewHandler(ocspResponder))

	// The correct stapling engine, with an outage switch between the
	// engine and the responder: real sockets have no netsim rules.
	var outage atomic.Bool
	fetch, err := webserver.NewFetcher(&scanner.RealTransport{Client: &http.Client{Timeout: 5 * time.Second}}, netsim.Vantage{}, clk, leaf)
	if err != nil {
		log.Fatal(err)
	}
	engine := webserver.NewEngine(leaf, webserver.CorrectPolicy(), func() ([]byte, error) {
		if outage.Load() {
			return nil, errors.New("simulated responder outage")
		}
		return fetch()
	}, clk)

	if err := engine.Start(); err != nil {
		log.Fatalf("prefetch: %v", err)
	}
	fmt.Printf("prefetched staple before any client connected (fetches so far: %d)\n", engine.FetchCount())

	tlsCfg, err := engine.TLSConfig()
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *httpsAddr)
	if err != nil {
		log.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "hello from a correctly stapling Must-Staple server")
	})
	server := &http.Server{Handler: mux, TLSConfig: tlsCfg}
	go server.ServeTLS(ln, "", "")
	fmt.Printf("HTTPS with stapling on https://%s/ (OCSP responder on %s)\n", ln.Addr(), ocspURL)

	if !*demo {
		select {}
	}

	// Self-driving demo: connect like a Must-Staple-respecting browser,
	// then break the responder and connect again.
	connectOnce := func(label string) {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			log.Fatal(err)
		}
		defer conn.Close()
		client := &browser.Client{
			Behavior: browser.Behavior{Name: "Firefox 60", OS: "Linux", RequestsStaple: true, RespectsMustStaple: true},
			Root:     ca.Certificate,
			Now:      clk.Now,
		}
		res, err := client.Connect(conn, "localhost")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: staple=%v accepted=%v (engine fetches: %d)\n", label, res.Staple, res.Accepted, engine.FetchCount())
	}

	connectOnce("client #1 (responder healthy)")
	outage.Store(true)
	sim.Advance(90 * time.Minute)
	fmt.Println("-- simulating OCSP responder outage; 90 minutes pass --")
	connectOnce("client #2 (responder down, staple retained from cache)")
}
