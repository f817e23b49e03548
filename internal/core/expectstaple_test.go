package core

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/world"
)

// expectStapleConfig: the expectstaple experiment needs the full-size
// fleet (the quality-defect and malformed pools thin out in tiny
// fleets), but a short campaign window keeps the test fast.
func expectStapleConfig(buildWorkers int) world.Config {
	cfg := tinyConfig()
	cfg.Responders = 0 // world default (full paper fleet)
	cfg.Start = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)
	cfg.End = time.Date(2018, 4, 28, 0, 0, 0, 0, time.UTC)
	cfg.BuildWorkers = buildWorkers
	return cfg
}

func runExpectStapleOnce(t *testing.T, buildWorkers int) string {
	t.Helper()
	var sb strings.Builder
	r := NewRunner(expectStapleConfig(buildWorkers), &sb)
	if err := r.Run(context.Background(), "expectstaple"); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunExpectStaple(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-size fleet")
	}
	out := runExpectStapleOnce(t, 0)
	for _, want := range []string{
		"Expect-Staple", "detection latency",
		"always-dead-responder", "event-outage", "expired-window",
		"malformed-responder", "outage-staleness", "revoked-but-served",
		"healthy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The healthy control must never be reported.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "www.healthysite.test") && !strings.Contains(line, "never") {
			t.Errorf("healthy site was reported: %s", line)
		}
	}
}

// stripTimingLines drops the wall-clock accounting lines (world build
// banner, per-experiment timer) that legitimately vary run to run.
func stripTimingLines(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "[world built") || strings.HasPrefix(trimmed, "[expectstaple:") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestExpectStapleDeterministicAcrossWorkers is the experiment-level
// determinism gate: identical rendered output regardless of worker
// count, once the wall-clock timing lines are stripped.
func TestExpectStapleDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-size fleet twice")
	}
	a := stripTimingLines(runExpectStapleOnce(t, 1))
	b := stripTimingLines(runExpectStapleOnce(t, 4))
	if a != b {
		t.Fatalf("output differs between 1 and 4 workers:\n--- workers=1\n%s\n--- workers=4\n%s", a, b)
	}
}

// TestTable2Table3ExpectStapleGolden pins the output of the three
// experiments whose stapling servers and clients fetch through
// webserver.NewFetcher: Table 2's harness, Table 3's engines and the
// Expect-Staple sites. The `[`-prefixed timing lines are left out of the
// comparison; the Expect-Staple line must still count its 269 responder
// fetches.
func TestTable2Table3ExpectStapleGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the full-size fleet")
	}
	var sb strings.Builder
	r := NewRunner(expectStapleConfig(0), &sb)
	for _, exp := range []string{"table2", "table3", "expectstaple"} {
		if err := r.Run(context.Background(), exp); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(sb.String(), "responder cache 0.0% hits (0/269)]") {
		t.Errorf("stats line does not count the Expect-Staple sites' 269 responder fetches:\n%s", sb.String())
	}
	want, err := os.ReadFile("testdata/table2_table3_expectstaple.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := withoutBracketLines(sb.String()); got != string(want) {
		t.Errorf("output differs from testdata/table2_table3_expectstaple.golden; got:\n%s", got)
	}
}
