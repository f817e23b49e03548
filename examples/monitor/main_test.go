package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// runEnv makes a re-executed test binary run the program instead of tests.
const runEnv = "MONITOR_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestMonitor runs the program as a process. It runs on a simulated
// clock, so its campaign counts are fixed.
func TestMonitor(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("monitor: %v\n%s", err, out)
	}
	for _, want := range []string{
		"monitored 6 responders: 2592 lookups across 6 vantages over 3 days",
		"retries=12 salvaged=0",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
}
