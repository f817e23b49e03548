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
const runEnv = "QUICKSTART_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestQuickstart runs the program as a process: it exits 0, and the
// browser-side verdict reads good before the revocation and revoked
// after it. The other lines carry wall-clock times and a free port.
func TestQuickstart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("quickstart: %v\n%s", err, out)
	}
	var verdicts []string
	for _, line := range strings.Split(string(out), "\n") {
		if v, ok := strings.CutPrefix(line, "browser-side staple verdict: "); ok {
			verdicts = append(verdicts, v)
		}
	}
	if strings.Join(verdicts, ",") != "good,revoked" {
		t.Errorf("staple verdicts = %q, want good then revoked\n%s", verdicts, out)
	}
}
