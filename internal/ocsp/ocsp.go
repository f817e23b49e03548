// Package ocsp is a from-scratch implementation of the Online Certificate
// Status Protocol (RFC 6960). It provides request and response
// encoding/decoding, response signing and verification (including OCSP
// signature authority delegation), the nonce extension, multi-certificate
// requests and responses, and the HTTP GET/POST transport encodings.
// Encoding uses internal/pkixutil's DER writer; parsing uses
// encoding/asn1.
//
// Unlike golang.org/x/crypto/ocsp (which this module deliberately does not
// use), this package supports multiple single requests per OCSP request and
// multiple SingleResponses per response — both of which the paper observes
// in the wild (Figure 7: 3.3% of responders always return 20 serial numbers
// per response) — as well as the pathological encodings the measurement
// study needs to detect: blank nextUpdate, premature thisUpdate, serial
// mismatches, and superfluous certificates.
package ocsp

import (
	"fmt"
)

// ResponseStatus is the OCSPResponseStatus enumeration (RFC 6960 §4.2.1).
type ResponseStatus int

const (
	// StatusSuccessful indicates the response has valid confirmations.
	StatusSuccessful ResponseStatus = 0
	// StatusMalformedRequest indicates an illegal confirmation request.
	StatusMalformedRequest ResponseStatus = 1
	// StatusInternalError indicates an internal error in the issuer.
	StatusInternalError ResponseStatus = 2
	// StatusTryLater asks the client to try again later.
	StatusTryLater ResponseStatus = 3
	// 4 is not used.
	// StatusSigRequired means the request must be signed.
	StatusSigRequired ResponseStatus = 5
	// StatusUnauthorized means the request was unauthorized.
	StatusUnauthorized ResponseStatus = 6
)

var responseStatusNames = map[ResponseStatus]string{
	StatusSuccessful:       "successful",
	StatusMalformedRequest: "malformedRequest",
	StatusInternalError:    "internalError",
	StatusTryLater:         "tryLater",
	StatusSigRequired:      "sigRequired",
	StatusUnauthorized:     "unauthorized",
}

func (s ResponseStatus) String() string {
	if n, ok := responseStatusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("responseStatus(%d)", int(s))
}

// Valid reports whether s is a status defined by RFC 6960.
func (s ResponseStatus) Valid() bool {
	_, ok := responseStatusNames[s]
	return ok
}

// CertStatus is a certificate's revocation status inside a SingleResponse.
type CertStatus int

const (
	// Good indicates the certificate is not known to be revoked. Note
	// (RFC 6960 §2.2, paper §2.2): Good does not assert the certificate
	// is within its validity interval; clients must check that
	// separately.
	Good CertStatus = iota
	// Revoked indicates the certificate has been revoked, temporarily
	// (certificateHold) or permanently.
	Revoked
	// Unknown indicates the responder does not know about the requested
	// certificate, typically because it is not served by this responder.
	// Clients are free to try another revocation source.
	Unknown
)

func (s CertStatus) String() string {
	switch s {
	case Good:
		return "good"
	case Revoked:
		return "revoked"
	case Unknown:
		return "unknown"
	}
	return fmt.Sprintf("certStatus(%d)", int(s))
}
