package expectstaple

import (
	"crypto/x509"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
)

// Evaluation is a user agent's verdict on one Known-Expect-Staple-Host
// handshake.
type Evaluation struct {
	// Violated is false for a compliant handshake (valid Good staple);
	// the remaining fields are then meaningless.
	Violated  bool
	Violation Violation
	// ThisUpdate/NextUpdate carry the served staple's validity window
	// into the report when the staple parsed; zero otherwise.
	ThisUpdate, NextUpdate time.Time
}

// Classify evaluates a stapled response the way a reporting user agent
// would: it runs the browser-side staple check (ocsp.VerifiedSingle, the
// check browser.EvaluateStaple makes) once and refines the generic
// "invalid" verdict into the report classes operators need to act on.
// The refreshFailing bit is the server-side outage signal (the draft's
// report schema carries the served-staple metadata a real UA cannot
// know; a simulation can, and the distinction between "your responder
// is down and you are serving stale" and "your responder hands out
// unusable windows" is exactly what detection-latency analysis wants to
// separate).
func Classify(staple []byte, leaf, issuer *x509.Certificate, now time.Time, refreshFailing bool) Evaluation {
	if len(staple) == 0 {
		return Evaluation{Violated: true, Violation: ViolationMissing}
	}
	single, err := ocsp.VerifiedSingle(staple, leaf, issuer)
	if err != nil {
		return Evaluation{Violated: true, Violation: ViolationMalformed}
	}
	ev := Evaluation{Violated: true, ThisUpdate: single.ThisUpdate, NextUpdate: single.NextUpdate}
	inWindow := single.ValidAt(now)
	switch {
	case inWindow && single.Status == ocsp.Good:
		return Evaluation{}
	case inWindow && single.Status == ocsp.Revoked:
		ev.Violation = ViolationRevoked
	case inWindow || single.ThisUpdate.IsZero():
		// A verified staple is out of window only when its window
		// excludes now; a freak status inside it, or no thisUpdate to
		// place it by, is malformed.
		ev.Violation = ViolationMalformed
	case refreshFailing:
		ev.Violation = ViolationStale
	default:
		ev.Violation = ViolationExpired
	}
	return ev
}
