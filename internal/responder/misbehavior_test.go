package responder

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
)

// TestMisbehaviorFlagsMatchOptions pins the 1:1 contract: parsing each
// misbehavior flag must build exactly the profile the corresponding
// functional option builds.
func TestMisbehaviorFlagsMatchOptions(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want Profile
	}{
		{"validity", []string{"-validity", "24h"}, NewProfile(WithValidity(24 * time.Hour))},
		{"blank-next-update", []string{"-blank-next-update"}, NewProfile(WithBlankNextUpdate())},
		{"zero-margin", []string{"-zero-margin"}, NewProfile(WithZeroMargin())},
		{"this-update-offset", []string{"-this-update-offset", "-5m"}, NewProfile(WithThisUpdateOffset(-5 * time.Minute))},
		{"cached+interval", []string{"-cached", "-update-interval", "1h"}, NewProfile(WithCachedResponses(time.Hour))},
		{"instances", []string{"-instances", "4", "-instance-skew", "2m"}, NewProfile(WithInstances(4, 2*time.Minute))},
		{"extra-serials", []string{"-extra-serials", "19"}, NewProfile(WithExtraSerials(19))},
		{"malformed", []string{"-malformed", "js"}, NewProfile(WithMalformed(MalformedJavaScript))},
		{"serial-mismatch", []string{"-serial-mismatch"}, NewProfile(WithSerialMismatch())},
		{"bad-signature", []string{"-bad-signature"}, NewProfile(WithBadSignature())},
		{"error-status", []string{"-error-status", "trylater"}, NewProfile(WithErrorStatus(ocsp.StatusTryLater))},
		{"revocation-time-skew", []string{"-revocation-time-skew", "216h"}, NewProfile(WithRevocationTimeSkew(216 * time.Hour))},
		{"drop-reason-codes", []string{"-drop-reason-codes"}, NewProfile(WithDropReasonCodes())},
		{"bool-false-noop", []string{"-bad-signature=false"}, NewProfile()},
		{"combined", []string{"-blank-next-update", "-extra-serials", "2", "-bad-signature"},
			NewProfile(WithBlankNextUpdate(), WithExtraSerials(2), WithBadSignature())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			m := BindMisbehaviorFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			if got := m.Profile(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("flags %v built\n%+v\nwant\n%+v", tc.args, got, tc.want)
			}
		})
	}
}

func TestMisbehaviorFlagRejectsBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-malformed", "bogus"},
		{"-error-status", "bogus"},
		{"-validity", "notaduration"},
		{"-extra-serials", "many"},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		BindMisbehaviorFlags(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("parse %v succeeded, want error", args)
		}
	}
}

// TestMisbehaviorsTableComplete: every flag the old cmd/ocspresponder
// misbehavior soup had must exist as a table row, and names are unique.
func TestMisbehaviorsTableComplete(t *testing.T) {
	rows := Misbehaviors()
	seen := make(map[string]bool)
	for _, mb := range rows {
		if mb.Flag == "" || mb.Usage == "" || mb.Option == nil {
			t.Errorf("incomplete row %+v", mb)
		}
		if seen[mb.Flag] {
			t.Errorf("duplicate flag %q", mb.Flag)
		}
		seen[mb.Flag] = true
	}
	for _, want := range []string{
		"validity", "blank-next-update", "zero-margin", "this-update-offset",
		"cached", "update-interval", "instances", "instance-skew",
		"extra-serials", "malformed", "serial-mismatch", "bad-signature",
		"error-status", "revocation-time-skew", "drop-reason-codes",
	} {
		if !seen[want] {
			t.Errorf("misbehavior table missing %q", want)
		}
	}
}

// TestApplyLayersOverBase: Apply refines an existing profile in place,
// the way the world generator layers quality budgets over base behavior.
func TestApplyLayersOverBase(t *testing.T) {
	p := NewProfile(WithCachedResponses(time.Hour), WithValidity(24*time.Hour))
	p.Apply(WithOnDemandGeneration(), WithZeroMargin())
	if p.CacheResponses {
		t.Error("WithOnDemandGeneration must clear CacheResponses")
	}
	if !p.NoDefaultMargin || p.ThisUpdateOffset != 0 {
		t.Error("WithZeroMargin must zero the margin")
	}
	if p.Validity != 24*time.Hour {
		t.Error("unrelated fields must survive Apply")
	}
}

// TestMalformedBodiesFile pins testdata/malformed-bodies.txt, from which
// the OCSP and CRL parsers' fuzz targets take their Figure 5 seeds, to the
// bodies malformed responders serve: one line per MalformedKind.
func TestMalformedBodiesFile(t *testing.T) {
	data, err := os.ReadFile("testdata/malformed-bodies.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" && line[0] != '#' {
			got = append(got, line)
		}
	}
	for k := MalformedEmpty; malformedBody(k) != nil; k++ {
		want = append(want, strings.TrimSpace(fmt.Sprintf("%d %x", k, malformedBody(k))))
	}
	if !slices.Equal(got, want) {
		t.Errorf("testdata/malformed-bodies.txt lists\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
