package main

import (
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// demoEnv makes a re-executed test binary run the demo instead of tests.
const demoEnv = "STAPLING_SERVER_RUN_DEMO"

func TestMain(m *testing.M) {
	if os.Getenv(demoEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDemo runs the demo as a process on free loopback ports: it exits 0,
// both clients accept the staple, and the second handshake is served the
// retained staple after the engine's refresh failed.
func TestDemo(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-https", "127.0.0.1:0", "-ocsp", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), demoEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("demo: %v\n%s", err, out)
	}
	var first, second string
	for _, line := range strings.Split(string(out), "\n") {
		switch {
		case strings.HasPrefix(line, "client #1"):
			first = line
		case strings.HasPrefix(line, "client #2"):
			second = line
		}
	}
	if !strings.Contains(first, "accepted=true") {
		t.Errorf("client #1 line %q, want accepted=true\n%s", first, out)
	}
	if !strings.Contains(second, "accepted=true") || !strings.Contains(second, "engine fetches: 2") {
		t.Errorf("client #2 line %q, want accepted=true after 2 engine fetches\n%s", second, out)
	}
}
