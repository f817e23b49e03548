// Command storedump inspects a durable observation store written by
// repro -store or ocspscan -store: it prints the store's shape (segments,
// records, rounds, checkpoint), optionally streams every observation as a
// canonical line or lists the distinct keys, or re-runs the paper's
// streaming analyses over the log. Like every Open, it first cuts the log
// back to its newest checkpoint, so it sees only committed rounds.
//
// Usage:
//
//	storedump [-v] [-analyze] [-keys] <store-dir>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"github.com/netmeasure/muststaple/internal/report"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/store"
)

func main() {
	verbose := flag.Bool("v", false, "stream every observation as its canonical line")
	analyze := flag.Bool("analyze", false, "stream the log through the paper's aggregators and render figures")
	keys := flag.Bool("keys", false, "list every distinct (round, responder, vantage) key")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: storedump [-v] [-analyze] [-keys] <store-dir>")
		os.Exit(2)
	}
	dir := flag.Arg(0)

	st, err := store.Open(dir, store.Options{})
	if err != nil {
		fail("open %s: %v", dir, err)
	}
	defer st.Close()

	summary(os.Stdout, st)
	if *keys {
		if err := dumpKeys(os.Stdout, st); err != nil {
			fail("keys: %v", err)
		}
	}
	if *verbose {
		fmt.Println()
		err := st.Reader().Scan(func(o scanner.Observation) error {
			_, err := fmt.Println(o.CanonicalLine())
			return err
		})
		if err != nil {
			fail("scan: %v", err)
		}
	}
	if *analyze {
		runAnalyses(st)
	}
}

func summary(w *os.File, st *store.Store) {
	stats := st.Stats()
	fmt.Fprintf(w, "store: %d record(s) across %d round(s), %d segment(s), %d bytes\n",
		stats.Records, stats.Rounds, stats.Segments, stats.Bytes)
	for _, seg := range st.Segments() {
		span := "empty"
		if seg.Records > 0 {
			span = fmt.Sprintf("%s .. %s",
				time.Unix(0, seg.FirstAt).UTC().Format(time.RFC3339),
				time.Unix(0, seg.LastAt).UTC().Format(time.RFC3339))
		}
		fmt.Fprintf(w, "  %s: %d record(s), %d bytes, %s\n", seg.Path, seg.Records, seg.Bytes, span)
	}
	if stats.HasCheckpoint {
		ck := stats.Checkpoint
		fmt.Fprintf(w, "checkpoint: seq %d at round %s (%d round(s), %d scan(s), %d payload byte(s))\n",
			ck.Seq, time.Unix(0, ck.Round).UTC().Format(time.RFC3339), ck.Rounds, ck.Scans, len(ck.Payload))
	} else {
		fmt.Fprintln(w, "checkpoint: none")
	}
}

// dumpKeys prints every distinct (round, responder, vantage) triple,
// sorted. The log holds rounds in ascending order, so it streams: one
// round's keys are collected, sorted and printed before the next.
func dumpKeys(w io.Writer, st *store.Store) error {
	type key struct{ responder, vantage string }
	var round time.Time
	seen := make(map[key]bool)
	flush := func() {
		keys := make([]key, 0, len(seen))
		for k := range seen {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].responder != keys[j].responder {
				return keys[i].responder < keys[j].responder
			}
			return keys[i].vantage < keys[j].vantage
		})
		for _, k := range keys {
			fmt.Fprintf(w, "  %s %s %s\n", round.Format(time.RFC3339), k.responder, k.vantage)
		}
		clear(seen)
	}
	err := st.Reader().Scan(func(o scanner.Observation) error {
		if !o.At.Equal(round) {
			flush()
			round = o.At
		}
		seen[key{o.Responder, o.Vantage}] = true
		return nil
	})
	flush()
	return err
}

// runAnalyses re-derives the paper's campaign figures by streaming the
// persisted log through the same aggregators the live engine uses — proof
// that a stored campaign is as analyzable as a running one.
func runAnalyses(st *store.Store) {
	bucket := analysisBucket(st)
	avail := scanner.NewAvailabilitySeries(bucket)
	quality := scanner.NewQualityAggregator()
	latency := scanner.NewLatencyAggregator()
	n, err := report.StreamInto(st.Reader(), avail, quality, latency)
	if err != nil {
		fail("analyze: %v", err)
	}
	fmt.Printf("\nanalyzed %d observation(s) (bucket %s)\n", n, bucket)
	report.Figure3(os.Stdout, avail, 1)
	report.Quality(os.Stdout, quality)
	report.Latency(os.Stdout, latency)
}

// analysisBucket infers the campaign stride from the gap between the
// first two persisted rounds, defaulting to the paper's hourly cadence.
// The scan stops at the first record of the second round.
func analysisBucket(st *store.Store) time.Duration {
	var first time.Time
	bucket := time.Hour
	err := st.Reader().Scan(func(o scanner.Observation) error {
		if first.IsZero() {
			first = o.At
		} else if d := o.At.Sub(first); d > 0 {
			bucket = d
			return store.ErrStop
		}
		return nil
	})
	if err != nil {
		fail("analyze: %v", err)
	}
	return bucket
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "storedump: "+format+"\n", args...)
	os.Exit(1)
}
