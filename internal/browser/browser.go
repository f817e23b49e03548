// Package browser models TLS client (web browser) revocation-checking
// policies and measures them the way the paper's §6 test suite does: a
// real TLS handshake against a server presenting an OCSP Must-Staple
// certificate with the staple deliberately withheld, observing whether the
// client (1) solicits a stapled response, (2) rejects the certificate
// (hard-fail), and (3) falls back to its own OCSP request.
//
// Each Behavior encodes one browser/OS configuration of Table 2; the test
// harness drives the same black-box experiment against all of them.
package browser

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
)

// Behavior is one browser/OS configuration's revocation policy.
type Behavior struct {
	// Name and OS identify the configuration ("Firefox 60" on "Linux").
	Name string
	OS   string
	// Mobile marks mobile configurations.
	Mobile bool
	// RequestsStaple: sends the Certificate Status Request extension in
	// the ClientHello (every browser in Table 2 does).
	RequestsStaple bool
	// RespectsMustStaple: hard-fails when a Must-Staple certificate
	// arrives without a valid staple (only Firefox on desktop OSes and
	// Android).
	RespectsMustStaple bool
	// FallsBackToOCSP: when accepting a staple-less certificate, makes
	// its own OCSP request to the responder (none of the accepting
	// browsers in Table 2 do).
	FallsBackToOCSP bool
}

// String renders "Name (OS)".
func (b Behavior) String() string { return fmt.Sprintf("%s (%s)", b.Name, b.OS) }

// Table2Behaviors returns the 16 browser configurations of Table 2 with
// their paper-measured policies.
func Table2Behaviors() []Behavior {
	var out []Behavior
	desktop := func(name string, respects bool, oses ...string) {
		for _, os := range oses {
			out = append(out, Behavior{Name: name, OS: os, RequestsStaple: true, RespectsMustStaple: respects})
		}
	}
	mobile := func(name string, respects bool, oses ...string) {
		for _, os := range oses {
			out = append(out, Behavior{Name: name, OS: os, Mobile: true, RequestsStaple: true, RespectsMustStaple: respects})
		}
	}
	desktop("Chrome 66", false, "OS X", "Linux", "Windows")
	desktop("Firefox 60", true, "OS X", "Linux", "Windows")
	desktop("Opera", false, "OS X", "Windows")
	desktop("Safari 11", false, "OS X")
	desktop("IE 11", false, "Windows")
	desktop("Edge 42", false, "Windows")
	mobile("Safari", false, "iOS")
	mobile("Chrome", false, "iOS", "Android")
	// The incomplete Firefox support the paper highlights: the iOS app
	// (forced onto Apple's TLS stack) does not respect Must-Staple,
	// while the Android app does.
	mobile("Firefox", false, "iOS")
	mobile("Firefox", true, "Android")
	return out
}

// StapleStatus classifies a stapled response from a client's perspective.
type StapleStatus int

const (
	// StapleMissing: the server sent no OCSP response.
	StapleMissing StapleStatus = iota
	// StapleInvalid: a staple arrived but failed validation.
	StapleInvalid
	// StapleRevoked: a valid staple reporting Revoked.
	StapleRevoked
	// StapleGood: a valid staple reporting Good.
	StapleGood
)

func (s StapleStatus) String() string {
	switch s {
	case StapleMissing:
		return "missing"
	case StapleInvalid:
		return "invalid"
	case StapleRevoked:
		return "revoked"
	case StapleGood:
		return "good"
	}
	return fmt.Sprintf("staple(%d)", int(s))
}

// EvaluateStaple performs full client-side validation of a stapled OCSP
// response for leaf issued by issuer at time now: the ocsp.VerifiedSingle
// check (parse, signature direct or delegated, serial coverage), then the
// validity window and status. This is the
// §6 logic a Must-Staple-respecting client must run, also exposed to the
// muststaple-lint example.
func EvaluateStaple(staple []byte, leaf, issuer *x509.Certificate, now time.Time) StapleStatus {
	if len(staple) == 0 {
		return StapleMissing
	}
	single, err := ocsp.VerifiedSingle(staple, leaf, issuer)
	if err != nil || !single.ValidAt(now) {
		return StapleInvalid
	}
	switch single.Status {
	case ocsp.Revoked:
		return StapleRevoked
	case ocsp.Good:
		return StapleGood
	default:
		return StapleInvalid
	}
}

// Result is the outcome of one browser-model connection.
type Result struct {
	Behavior Behavior
	// GotStaple: the handshake carried a stapled response.
	GotStaple bool
	// Staple is its validation status.
	Staple StapleStatus
	// MustStapleCert: the server certificate carries the extension.
	MustStapleCert bool
	// Accepted: the browser proceeded with the connection.
	Accepted bool
	// SentOwnOCSP: the browser issued its own OCSP request afterwards.
	SentOwnOCSP bool
}

// Client is a browser-model TLS client.
type Client struct {
	Behavior Behavior
	// Root anchors chain validation.
	Root *x509.Certificate
	// Now supplies virtual time for certificate and staple validation;
	// nil falls back to the wall clock (clock.Real).
	Now func() time.Time
	// FallbackOCSP performs the browser's own OCSP lookup when the
	// policy calls for one; may be nil.
	FallbackOCSP func(leaf, issuer *x509.Certificate) error
}

// Connect runs one handshake over conn (already connected to the server)
// and applies the behavior's Must-Staple policy.
func (c *Client) Connect(conn net.Conn, serverName string) (Result, error) {
	res := Result{Behavior: c.Behavior}
	now := clock.Real{}.Now()
	if c.Now != nil {
		now = c.Now()
	}
	pool := x509.NewCertPool()
	pool.AddCert(c.Root)
	tconn := tls.Client(conn, &tls.Config{
		RootCAs:    pool,
		ServerName: serverName,
		Time:       func() time.Time { return now },
	})
	if err := tconn.Handshake(); err != nil {
		return res, fmt.Errorf("browser: handshake: %w", err)
	}
	state := tconn.ConnectionState()
	if len(state.PeerCertificates) < 2 {
		return res, errors.New("browser: server sent no issuer certificate")
	}
	leaf, issuer := state.PeerCertificates[0], state.PeerCertificates[1]

	staple := state.OCSPResponse
	res.GotStaple = len(staple) > 0
	res.Staple = EvaluateStaple(staple, leaf, issuer, now)
	res.MustStapleCert = pki.HasMustStaple(leaf)

	switch {
	case res.Staple == StapleRevoked:
		// Every browser rejects an explicit Revoked staple.
		res.Accepted = false
	case res.MustStapleCert && res.Staple != StapleGood && c.Behavior.RespectsMustStaple:
		// Hard-fail: the Must-Staple promise was broken.
		res.Accepted = false
	default:
		res.Accepted = true
		if res.Staple != StapleGood && c.Behavior.FallsBackToOCSP && c.FallbackOCSP != nil {
			if err := c.FallbackOCSP(leaf, issuer); err == nil {
				res.SentOwnOCSP = true
			}
		}
	}
	return res, nil
}
