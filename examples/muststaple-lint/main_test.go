package main

import (
	"context"
	"os"
	"os/exec"
	"testing"
	"time"
)

// runEnv makes a re-executed test binary run the program instead of tests.
const runEnv = "MUSTSTAPLE_LINT_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// demoOutput is the demo mode's report. The demos run on a simulated
// clock, so it is fixed. The expired staple verifies and covers the leaf;
// only its validity window fails.
const demoOutput = `--- correctly stapling server ---
  ✓ certificate carries OCSP Must-Staple (TLS-Feature status_request)
  ✓ certificate advertises an OCSP responder (AIA)
  ✓ server stapled an OCSP response
  ✓ staple parses, verifies, and covers this certificate
  ✓ staple is inside its validity window (thisUpdate to nextUpdate)
  ✓ staple reports Good

--- server withholding the staple (SSLUseStapling off) ---
  ✓ certificate carries OCSP Must-Staple (TLS-Feature status_request)
  ✓ certificate advertises an OCSP responder (AIA)
  ✗ server stapled an OCSP response
  ✗ VERDICT: a Must-Staple-respecting client (Firefox) hard-fails this handshake

--- server stapling an expired response (Apache bug #62400) ---
  ✓ certificate carries OCSP Must-Staple (TLS-Feature status_request)
  ✓ certificate advertises an OCSP responder (AIA)
  ✓ server stapled an OCSP response
  ✓ staple parses, verifies, and covers this certificate
  ✗ staple is inside its validity window (thisUpdate to nextUpdate)
  ✓ staple reports Good

--- server stapling a low-quality (blank nextUpdate, zero margin) response ---
  ✓ certificate carries OCSP Must-Staple (TLS-Feature status_request)
  ✓ certificate advertises an OCSP responder (AIA)
  ✓ server stapled an OCSP response
  ✓ staple parses, verifies, and covers this certificate
  ✓ staple is inside its validity window (thisUpdate to nextUpdate)
  ✓ staple reports Good
  ! nextUpdate is blank: the response never expires and clients may cache it forever
  ! thisUpdate has no clock-skew margin: clients with slow clocks will reject the staple
  ! 2 certificates embedded in the response (superfluous beyond a delegated signer)

`

// TestDemos runs the demo mode as a process: it exits 0 and prints
// demoOutput.
func TestDemos(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("muststaple-lint: %v\n%s", err, out)
	}
	if string(out) != demoOutput {
		t.Errorf("demo output:\n%s\nwant:\n%s", out, demoOutput)
	}
}
