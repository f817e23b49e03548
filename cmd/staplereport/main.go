// Command staplereport inspects Expect-Staple violation-report logs and
// gates the ingestion tier's throughput.
//
// The default mode streams a report-log directory (the expectstaple
// experiment's persisted arrival order) and prints each report, plus a
// per-host/violation summary:
//
//	staplereport -dir store/expectstaple [-limit 20] [-summary]
//
// With -ingestcheck it synthesizes a violation-report workload and
// drives the collector's HTTP handler in-process (no sockets: the check
// measures decode + persist + aggregate, not loopback TCP). It fails on
// the first report answered with anything but 202 Accepted, and when
// throughput drops below -min-rate or the post-run heap grows past
// -max-heap-mb — the `make staplecheck` tier-2 gate:
//
//	staplereport -ingestcheck -reports 200000 -workers 8 -min-rate 20000
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/expectstaple"
	"github.com/netmeasure/muststaple/internal/store"
)

func main() {
	var (
		dir     = flag.String("dir", "", "report-log directory to dump")
		limit   = flag.Int("limit", 0, "print at most this many reports (0: all)")
		summary = flag.Bool("summary", true, "print the per-host summary after dumping")

		ingestcheck = flag.Bool("ingestcheck", false, "synthesize reports and gate the in-process ingest rate")
		reports     = flag.Int("reports", 200_000, "reports to ingest (with -ingestcheck)")
		workers     = flag.Int("workers", 8, "concurrent submitters (with -ingestcheck)")
		hosts       = flag.Int("hosts", 64, "distinct reported hosts in the workload (with -ingestcheck)")
		minRate     = flag.Int("min-rate", 20_000, "fail below this many reports/s (with -ingestcheck; 0 disables)")
		maxHeapMB   = flag.Int("max-heap-mb", 16, "fail when the post-run heap exceeds this (with -ingestcheck; 0 disables)")
		persist     = flag.Bool("persist", true, "ingest through a real report log in a scratch dir (with -ingestcheck)")
	)
	flag.Parse()

	switch {
	case *ingestcheck:
		runIngestCheck(*reports, *workers, *hosts, *minRate, *maxHeapMB, *persist)
	case *dir != "":
		dump(*dir, *limit, *summary)
	default:
		fail("need -dir or -ingestcheck")
	}
}

// dump streams the log and prints reports in arrival order.
func dump(dir string, limit int, summary bool) {
	tally := map[string]*expectstaple.HostStats{}
	printed, total := 0, 0
	err := store.ScanReportLog(dir, func(payload []byte) error {
		rep, err := expectstaple.DecodeReport(payload)
		if err != nil {
			return fmt.Errorf("record %d: %w", total, err)
		}
		total++
		hs := tally[rep.Host]
		if hs == nil {
			hs = &expectstaple.HostStats{Host: rep.Host}
			tally[rep.Host] = hs
		}
		hs.Total++
		hs.ByViolation[rep.Violation]++
		if hs.First.IsZero() || rep.At.Before(hs.First) {
			hs.First = rep.At
		}
		if rep.At.After(hs.Last) {
			hs.Last = rep.At
		}
		if limit == 0 || printed < limit {
			printed++
			enforce := ""
			if rep.Enforce {
				enforce = " enforce"
			}
			fmt.Printf("%s  %-22s %-18s client=%d vantage=%s%s\n",
				rep.At.UTC().Format("2006-01-02 15:04:05"), rep.Host, rep.Violation, rep.Client, rep.Vantage, enforce)
		}
		return nil
	})
	if err != nil {
		fail("scan: %v", err)
	}
	if limit != 0 && total > printed {
		fmt.Printf("... %d more reports\n", total-printed)
	}
	if summary {
		hosts := make([]string, 0, len(tally))
		for h := range tally {
			hosts = append(hosts, h)
		}
		sort.Strings(hosts)
		fmt.Printf("\n%d reports, %d hosts\n", total, len(hosts))
		for _, h := range hosts {
			hs := tally[h]
			dom, domCount := 0, uint64(0)
			for v, c := range hs.ByViolation {
				if c > domCount {
					dom, domCount = v, c
				}
			}
			fmt.Printf("%-22s %8d reports  dominant %-18s %s .. %s\n",
				hs.Host, hs.Total, expectstaple.Violation(dom),
				hs.First.UTC().Format("01-02 15:04"), hs.Last.UTC().Format("01-02 15:04"))
		}
	}
}

// runIngestCheck floods the collector handler in-process and gates the
// measured ingest rate and heap, the role `ocspload -check` plays for the
// OCSP tier.
func runIngestCheck(reports, workers, hosts, minRate, maxHeapMB int, persist bool) {
	// The heap gate measures the collector's own footprint: its
	// per-host aggregates and pooled decode tables, which stay bounded
	// by the number of hosts however many reports arrive.
	var opts []expectstaple.CollectorOption
	var log *store.ReportLog
	if persist {
		scratch, err := os.MkdirTemp("", "staplereport-*")
		if err != nil {
			fail("scratch dir: %v", err)
		}
		defer os.RemoveAll(scratch)
		log, err = store.CreateReportLog(scratch)
		if err != nil {
			fail("report log: %v", err)
		}
		opts = append(opts, expectstaple.WithSink(log))
	}
	collector := expectstaple.NewCollector(opts...)

	// Pre-encode one canonical payload per host: the timed loop measures
	// the server side (HTTP policing, decode, persist, aggregate),
	// not the client's encoder.
	base := time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	bodies := make([][]byte, hosts)
	for i := range bodies {
		bodies[i] = expectstaple.AppendReport(nil, &expectstaple.Report{
			At:        base.Add(time.Duration(i) * time.Second),
			Host:      fmt.Sprintf("site-%03d.load.test", i),
			Vantage:   "loopback",
			Violation: expectstaple.Violation(i % expectstaple.NumViolations),
			Enforce:   i%2 == 0,
		})
	}

	start := time.Now()
	var wg sync.WaitGroup
	per := reports / workers
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				body := bodies[(w*per+i)%len(bodies)]
				req := httptest.NewRequest(http.MethodPost, "http://reports.test/expect-staple", nil)
				req.Header.Set("Content-Type", expectstaple.ContentTypeReport)
				req.Body = io.NopCloser(bytes.NewReader(body))
				rr := httptest.NewRecorder()
				collector.ServeHTTP(rr, req)
				if rr.Code != http.StatusAccepted {
					fail("ingest: status %d, want %d", rr.Code, http.StatusAccepted)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	collector.Close()
	if log != nil {
		if err := log.Close(); err != nil {
			fail("close log: %v", err)
		}
	}

	accepted := collector.Accepted()
	rate := float64(accepted) / elapsed.Seconds()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / (1 << 20)

	var persisted int64
	if log != nil {
		persisted = log.Records()
	}
	fmt.Printf("ingested %d reports in %v: %.0f reports/s (%d persisted), heap %.1f MiB\n",
		accepted, elapsed.Round(time.Millisecond), rate, persisted, heapMB)
	if log != nil && persisted != accepted {
		fail("persisted %d != accepted %d", persisted, accepted)
	}

	if minRate > 0 && rate < float64(minRate) {
		fail("check failed: %.0f reports/s below -min-rate %d", rate, minRate)
	}
	if maxHeapMB > 0 && heapMB > float64(maxHeapMB) {
		fail("check failed: heap %.1f MiB above -max-heap-mb %d", heapMB, maxHeapMB)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "staplereport: "+format+"\n", args...)
	os.Exit(1)
}
