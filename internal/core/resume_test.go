package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/report"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/store"
	"github.com/netmeasure/muststaple/internal/world"
)

// resumeConfig is a campaign big enough to cross several checkpoints and
// segment flushes but quick enough for tier-1.
func resumeConfig() world.Config {
	return world.Config{
		Seed:              7,
		Responders:        60,
		CertsPerResponder: 1,
		Start:             time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC),
		End:               time.Date(2018, 4, 26, 12, 0, 0, 0, time.UTC),
		Stride:            time.Hour,
		AlexaDomains:      1_000,
	}
}

// filterWallClock drops the output lines that legitimately differ between
// two identical campaigns: wall-time accounting ("[...]" lines) and the
// engine stats line carrying wall-clock latency and queue depth.
func filterWallClock(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "[") || strings.Contains(line, "round-latency-mean") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// storeLog streams a campaign store into an ObservationLog for byte-level
// stream comparison.
func storeLog(t *testing.T, dir string) *scanner.ObservationLog {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	defer st.Close()
	log := scanner.NewObservationLog()
	if _, err := report.StreamInto(st.Reader(), log); err != nil {
		t.Fatalf("StreamInto(%s): %v", dir, err)
	}
	return log
}

// TestResumeReproducesUninterruptedRun is the PR's acceptance test: a
// campaign interrupted mid-round by the store's crash failpoint and then
// resumed with -resume must leave a byte-identical observation stream and
// render byte-identical figures compared to the same campaign run
// uninterrupted.
func TestResumeReproducesUninterruptedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three measurement campaigns")
	}
	cfg := resumeConfig()

	// Uninterrupted reference run.
	fullDir := t.TempDir()
	var fullOut strings.Builder
	full := NewRunner(cfg, &fullOut)
	full.StoreDir = fullDir
	if err := full.Run(context.Background(), "fig3"); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Crashed run: the failpoint kills the 20th round mid-append.
	crashDir := t.TempDir()
	var crashOut strings.Builder
	crashed := NewRunner(cfg, &crashOut)
	crashed.StoreDir = crashDir
	crashed.CrashAfterRounds = 20
	err := crashed.Run(context.Background(), "fig3")
	if !errors.Is(err, store.ErrSimulatedCrash) {
		t.Fatalf("crash run error = %v, want ErrSimulatedCrash", err)
	}

	// Resumed run over the crashed store.
	var resumeOut strings.Builder
	resumed := NewRunner(cfg, &resumeOut)
	resumed.StoreDir = crashDir
	resumed.Resume = true
	if err := resumed.Run(context.Background(), "fig3"); err != nil {
		t.Fatalf("resumed run: %v", err)
	}

	// The persisted observation streams must be byte-identical.
	fullLog := storeLog(t, filepath.Join(fullDir, "hourly"))
	resumedLog := storeLog(t, filepath.Join(crashDir, "hourly"))
	if fullLog.Len() == 0 {
		t.Fatal("uninterrupted store is empty")
	}
	if d := fullLog.Diff(resumedLog); d != "" {
		t.Errorf("stores diverge: %s", d)
	}

	// The rendered figures (and engine class counts) must match too.
	if got, want := filterWallClock(resumeOut.String()), filterWallClock(fullOut.String()); got != want {
		t.Errorf("rendered output diverges\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestCrashBeforeFirstCheckpointReruns: a campaign that dies in its first
// round commits nothing, so its store opens empty, and a rerun with or
// without Resume leaves the uninterrupted run's stream and output.
func TestCrashBeforeFirstCheckpointReruns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs five measurement campaigns")
	}
	cfg := resumeConfig()
	cfg.End = cfg.Start.Add(8 * time.Hour)
	cfg.Responders = 30

	fullDir := t.TempDir()
	var fullOut strings.Builder
	full := NewRunner(cfg, &fullOut)
	full.StoreDir = fullDir
	if err := full.Run(context.Background(), "fig3"); err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	fullLog := storeLog(t, filepath.Join(fullDir, "hourly"))

	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		crashed := NewRunner(cfg, io.Discard)
		crashed.StoreDir = dir
		crashed.CrashAfterRounds = 1
		if err := crashed.Run(context.Background(), "fig3"); !errors.Is(err, store.ErrSimulatedCrash) {
			t.Fatalf("resume=%v: crash run error = %v, want ErrSimulatedCrash", resume, err)
		}
		var out strings.Builder
		rerun := NewRunner(cfg, &out)
		rerun.StoreDir = dir
		rerun.Resume = resume
		if err := rerun.Run(context.Background(), "fig3"); err != nil {
			t.Fatalf("resume=%v: rerun: %v", resume, err)
		}
		if d := fullLog.Diff(storeLog(t, filepath.Join(dir, "hourly"))); d != "" {
			t.Errorf("resume=%v: stores diverge: %s", resume, d)
		}
		if got, want := filterWallClock(out.String()), filterWallClock(fullOut.String()); got != want {
			t.Errorf("resume=%v: rendered output diverges\n--- uninterrupted ---\n%s\n--- rerun ---\n%s", resume, want, got)
		}
	}
}

// TestStoreRefusesSilentOverwrite: pointing -store at a directory that
// already holds a campaign without -resume must fail loudly instead of
// appending garbage.
func TestStoreRefusesSilentOverwrite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a measurement campaign")
	}
	cfg := resumeConfig()
	dir := t.TempDir()
	var out strings.Builder
	first := NewRunner(cfg, &out)
	first.StoreDir = dir
	if err := first.Run(context.Background(), "fig3"); err != nil {
		t.Fatalf("first run: %v", err)
	}
	again := NewRunner(cfg, &out)
	again.StoreDir = dir
	err := again.Run(context.Background(), "fig3")
	if err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("second run without -resume = %v, want a pass-resume error", err)
	}
}

// TestResumeCompletedCampaignIsReplayOnly: resuming a fully persisted
// campaign rescans nothing and still renders identical figures.
func TestResumeCompletedCampaignIsReplayOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two measurement campaigns")
	}
	cfg := resumeConfig()
	// Shrink: this case only needs completeness, not checkpoint spread.
	cfg.End = cfg.Start.Add(8 * time.Hour)
	cfg.Responders = 30

	dir := t.TempDir()
	var firstOut strings.Builder
	first := NewRunner(cfg, &firstOut)
	first.StoreDir = dir
	if err := first.Run(context.Background(), "fig3"); err != nil {
		t.Fatalf("first run: %v", err)
	}
	var secondOut strings.Builder
	second := NewRunner(cfg, &secondOut)
	second.StoreDir = dir
	second.Resume = true
	if err := second.Run(context.Background(), "fig3"); err != nil {
		t.Fatalf("replay-only resume: %v", err)
	}
	if got, want := filterWallClock(secondOut.String()), filterWallClock(firstOut.String()); got != want {
		t.Errorf("replay-only output diverges\n--- original ---\n%s\n--- resumed ---\n%s", want, got)
	}
}

// TestCheckpointPayloadMatchesHeader runs a small Hourly campaign with a
// store and checks that the last checkpoint's payload (the campaign stats
// line) counts the same scans and rounds as the checkpoint's header: the
// payload is rendered after the round it checkpoints has been folded.
func TestCheckpointPayloadMatchesHeader(t *testing.T) {
	cfg := resumeConfig()
	cfg.End = cfg.Start.Add(8 * time.Hour)
	cfg.Responders = 30

	dir := t.TempDir()
	r := NewRunner(cfg, io.Discard)
	r.StoreDir = dir
	if err := r.Run(context.Background(), "fig3"); err != nil {
		t.Fatalf("run: %v", err)
	}
	st, err := store.Open(filepath.Join(dir, "hourly"), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := st.Stats()
	ck, ok := stats.Checkpoint, stats.HasCheckpoint
	if !ok {
		t.Fatal("campaign store holds no checkpoint")
	}
	var scans, rounds int64
	if _, err := fmt.Sscanf(string(ck.Payload), "scans=%d rounds=%d", &scans, &rounds); err != nil {
		t.Fatalf("payload %q: %v", ck.Payload, err)
	}
	if scans != ck.Scans || rounds != ck.Rounds {
		t.Fatalf("payload reads scans=%d rounds=%d, checkpoint header has scans=%d rounds=%d",
			scans, rounds, ck.Scans, ck.Rounds)
	}
}
