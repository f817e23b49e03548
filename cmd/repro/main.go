// Command repro regenerates every table and figure of "Is the Web Ready
// for OCSP Must-Staple?" (IMC 2018) from the simulated measurement world.
//
// Usage:
//
//	repro [-exp all|sec4|fig2,fig3|...|table3|cdn] [-seed N] [-full] [-stride 12h]
//	      [-store DIR [-resume]] [-world-scale S] [-memstats]
//
// The default configuration is a scaled-down world that completes in a
// couple of minutes; -full switches to paper-scale parameters (hourly
// scans, 50 certificates per responder, exact Table 1 populations) and
// takes correspondingly longer. -world-scale grows the certificate-census
// and Alexa axes (streamed, so peak memory stays flat; see DESIGN.md §13).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/netmeasure/muststaple/internal/core"
	"github.com/netmeasure/muststaple/internal/memwatch"
	"github.com/netmeasure/muststaple/internal/profiling"
	"github.com/netmeasure/muststaple/internal/store"
	"github.com/netmeasure/muststaple/internal/world"
)

func main() {
	exp := flag.String("exp", "all", "experiment(s) to run, comma-separated: all, or from "+strings.Join(core.Experiments(), ", "))
	seed := flag.Int64("seed", 1, "world seed (equal seeds give equal measurements)")
	full := flag.Bool("full", false, "paper-scale configuration (slow)")
	stride := flag.Duration("stride", 0, "campaign scan interval override (e.g. 1h, 12h)")
	responders := flag.Int("responders", 0, "responder fleet size override (default 536)")
	certs := flag.Int("certs", 0, "certificates per responder override (default 5)")
	worldScale := flag.Int("world-scale", 0, "corpus-axis multiplier: S× the census records and Alexa domains, streamed in fixed memory (default 1)")
	buildWorkers := flag.Int("build-workers", 0, "construction worker pool size (default GOMAXPROCS; 1 forces the serial reference build)")
	memStats := flag.Bool("memstats", false, "sample the heap during the run and print peak usage on exit")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	storeDir := flag.String("store", "", "persist campaign observations to this directory (one subdirectory per campaign)")
	resume := flag.Bool("resume", false, "resume an interrupted campaign from the -store directory")
	crashAfterRounds := flag.Int("crash-after-rounds", 0, "testing failpoint: simulate a crash mid-append after N persisted rounds (requires -store)")
	flag.Parse()

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "repro: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiling()

	cfg := world.Config{Seed: *seed}
	if *full {
		cfg = world.Full(*seed)
	} else {
		// The quick default: 12-hour stride and 3 certificates per
		// responder regenerate every figure's shape in about a
		// minute on a small machine.
		cfg.Stride = 12 * time.Hour
		cfg.CertsPerResponder = 3
	}
	if *stride != 0 {
		cfg.Stride = *stride
	}
	if *responders != 0 {
		cfg.Responders = *responders
	}
	if *certs != 0 {
		cfg.CertsPerResponder = *certs
	}
	cfg.WorldScale = *worldScale
	cfg.BuildWorkers = *buildWorkers

	// Interrupting a long campaign (paper-scale runs take minutes) stops
	// it cleanly between scans instead of killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var watch *memwatch.Tracker
	if *memStats {
		watch = memwatch.Start(0)
	}

	runner := core.NewRunner(cfg, os.Stdout)
	runner.StoreDir = *storeDir
	runner.Resume = *resume
	runner.CrashAfterRounds = *crashAfterRounds
	start := time.Now()
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if err := runner.Run(ctx, name); err != nil {
			fmt.Fprintf(os.Stderr, "repro: %v\n", err)
			stopProfiling()
			// The crash failpoint gets its own exit code so the recovery
			// harness can tell a simulated crash from a real failure.
			if errors.Is(err, store.ErrSimulatedCrash) {
				os.Exit(3)
			}
			os.Exit(1)
		}
	}
	if watch != nil {
		st := watch.Stop()
		fmt.Printf("\n[memstats] heap_alloc_peak_bytes=%d heap_sys_peak_bytes=%d total_alloc_bytes=%d samples=%d\n",
			st.HeapAllocPeak, st.HeapSysPeak, st.TotalAlloc, st.Samples)
	}
	fmt.Printf("\n[%s completed in %v]\n", *exp, time.Since(start).Round(time.Millisecond))
}
