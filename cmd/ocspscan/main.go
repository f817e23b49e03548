// Command ocspscan is the measurement client as a standalone tool: it
// repeatedly checks one or more (responder URL, issuer certificate,
// serial) triples over real HTTP, classifying every outcome the way §5 of
// the paper does, and prints per-round classification lines plus a final
// summary.
//
// Usage:
//
//	ocspscan -issuer ca.pem -serial 123456 -url http://ocsp.example.com \
//	         [-rounds 24] [-interval 1h] [-method POST|GET] \
//	         [-retries 3] [-retry-base 1s] [-timeout 10s] [-metrics]
//	         [-store dir [-resume]] [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -demo, it instead spins up an in-process misbehaving responder and
// scans that, so the tool is demonstrable offline.
package main

import (
	"context"
	"crypto/x509"
	"encoding/pem"
	"flag"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/metrics"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/ocspserver"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/profiling"
	"github.com/netmeasure/muststaple/internal/responder"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/store"
)

func main() {
	issuerPath := flag.String("issuer", "", "PEM file with the issuer certificate")
	serialStr := flag.String("serial", "", "certificate serial number (decimal)")
	url := flag.String("url", "", "OCSP responder URL")
	rounds := flag.Int("rounds", 1, "number of scan rounds")
	interval := flag.Duration("interval", time.Hour, "wall-clock interval between rounds (paper: hourly)")
	method := flag.String("method", http.MethodPost, "HTTP method: POST (paper default) or GET")
	demo := flag.Bool("demo", false, "scan a built-in demo responder instead of a real one")
	retries := flag.Int("retries", 1, "max attempts per lookup; >1 retries transient failures with backoff")
	retryBase := flag.Duration("retry-base", time.Second, "initial retry backoff (doubles per retry)")
	attemptTimeout := flag.Duration("timeout", 10*time.Second, "per-attempt timeout")
	showMetrics := flag.Bool("metrics", false, "print the full metrics snapshot after the summary")
	storeDir := flag.String("store", "", "persist per-round observations to this store directory")
	resume := flag.Bool("resume", false, "continue a previous -store run, counting its rounds toward -rounds")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProfiling()

	if *rounds <= 0 {
		// A zero round count previously slipped through to the summary
		// line and printed a NaN failure rate.
		fmt.Fprintln(os.Stderr, "ocspscan: -rounds must be >= 1")
		flag.Usage()
		os.Exit(2)
	}

	var tgt scanner.Target
	var demoResponder *responder.Responder
	var cleanup func()
	switch {
	case *demo:
		tgt, demoResponder, cleanup = demoTarget()
		defer cleanup()
	case *issuerPath != "" && *serialStr != "" && *url != "":
		issuer, err := loadCert(*issuerPath)
		if err != nil {
			fail("load issuer: %v", err)
		}
		serial, ok := new(big.Int).SetString(*serialStr, 10)
		if !ok {
			fail("bad serial %q", *serialStr)
		}
		tgt = scanner.Target{ResponderURL: *url, Responder: *url, Issuer: issuer, Serial: serial}
	default:
		fail("need -demo, or all of -issuer, -serial, and -url")
	}

	reg := metrics.NewRegistry()
	client := &scanner.Client{
		Transport: &scanner.RealTransport{Client: &http.Client{Timeout: *attemptTimeout}},
		Method:    *method,
		Retry: scanner.RetryPolicy{
			Attempts:          *retries,
			PerAttemptTimeout: *attemptTimeout,
			BaseBackoff:       *retryBase,
		},
		Metrics: reg,
	}
	vantage := netsim.Vantage{Name: "local"}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var okCount, badCount, doneRounds int
	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{Metrics: reg})
		if err != nil {
			fail("open store: %v", err)
		}
		defer st.Close()
		if stats := st.Stats(); stats.HasCheckpoint {
			if !*resume {
				fail("store %s already holds %d rounds; pass -resume to continue it", *storeDir, stats.Rounds)
			}
			// Restore the summary tallies from the persisted stream so
			// the final line covers the whole run, not just this process.
			err := st.Reader().Scan(func(o scanner.Observation) error {
				if o.Class == scanner.ClassOK {
					okCount++
				} else if o.Class != scanner.ClassCanceled {
					badCount++
				}
				return nil
			})
			if err != nil {
				fail("replay store: %v", err)
			}
			doneRounds = stats.Rounds
			fmt.Printf("resuming: %d round(s) already persisted\n", doneRounds)
		}
	}
	for i := doneRounds; i < *rounds; i++ {
		if i > doneRounds && !*demo {
			select {
			case <-ctx.Done():
			case <-time.After(*interval):
			}
		}
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "ocspscan: interrupted")
			break
		}
		obs := client.Scan(ctx, vantage, time.Now(), tgt)
		if obs.Class == scanner.ClassCanceled {
			continue
		}
		if st != nil {
			if err := st.AppendRound(obs.At, []scanner.Observation{obs}); err != nil {
				fail("persist round: %v", err)
			}
		}
		if retried := obs.Attempts - 1; retried > 0 {
			fmt.Printf("%s retried %d time(s): first=%v final=%v salvaged=%v\n",
				obs.At.Format(time.RFC3339), retried, obs.Class, obs.FinalClass, obs.Salvaged)
		}
		if obs.Class == scanner.ClassOK {
			okCount++
			next := "blank"
			if obs.HasNextUpdate {
				next = obs.NextUpdate.Format(time.RFC3339)
			}
			fmt.Printf("%s ok status=%v producedAt=%s thisUpdate=%s nextUpdate=%s serials=%d certs=%d latency=%v\n",
				obs.At.Format(time.RFC3339), obs.CertStatus,
				obs.ProducedAt.Format(time.RFC3339), obs.ThisUpdate.Format(time.RFC3339), next,
				obs.NumSerials, obs.NumCerts, obs.Latency)
		} else {
			badCount++
			fmt.Printf("%s FAIL class=%v http=%d\n", obs.At.Format(time.RFC3339), obs.Class, obs.HTTPStatus)
		}
	}
	if okCount+badCount == 0 {
		fmt.Println("summary: no lookups completed")
		return
	}
	fmt.Printf("summary: %d/%d successful (%.1f%% failure rate)\n", okCount, okCount+badCount, 100*float64(badCount)/float64(okCount+badCount))
	if *showMetrics {
		if demoResponder != nil {
			hits, misses := demoResponder.CacheStats()
			fmt.Printf("responder cache: hits=%d misses=%d\n", hits, misses)
		}
		fmt.Print(reg.Snapshot())
	}
}

// demoTarget builds an in-process responder that misbehaves on a schedule,
// so the classification output is interesting without network access.
func demoTarget() (scanner.Target, *responder.Responder, func()) {
	ca, err := pki.NewRootCA(pki.Config{Name: "ocspscan demo CA", NotBefore: time.Now().Add(-time.Hour)})
	if err != nil {
		fail("demo CA: %v", err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames:  []string{"demo.localhost"},
		NotBefore: time.Now().Add(-time.Hour),
		NotAfter:  time.Now().AddDate(0, 1, 0),
	})
	if err != nil {
		fail("demo leaf: %v", err)
	}
	db := responder.NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	r := responder.New("demo", ca, db, clock.Real{}, responder.Profile{
		BlankNextUpdate: true, // a §5.4 quality defect, visible in the output
		ExtraSerials:    2,
	})
	srv := httptest.NewServer(ocspserver.NewHandler(r))
	return scanner.Target{
		ResponderURL: srv.URL,
		Responder:    "demo",
		Issuer:       ca.Certificate,
		Serial:       leaf.Certificate.SerialNumber,
	}, r, srv.Close
}

func loadCert(path string) (*x509.Certificate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(data)
	if block == nil {
		return nil, fmt.Errorf("no PEM block in %s", path)
	}
	return x509.ParseCertificate(block.Bytes)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ocspscan: "+format+"\n", args...)
	os.Exit(1)
}
