// Package chaincheck addresses the OCSP Stapling limitation the paper
// raises in §2.3: "a client needs to check the revocation status of all
// certificates on the chain using OCSP, but OCSP Stapling only allows the
// revocation status for the leaf certificate to be included. There is an
// extension [RFC 6961, status_request_v2] that tries to address this
// limitation by allowing the server to include multiple certificate
// statuses, but it has yet to see wide adoption."
//
// This package implements that multiple-status mechanism: a Bundle is the
// multi-response payload a status_request_v2 server would staple (one OCSP
// response per chain element, DER-enveloped), and VerifyChain is the
// client side — full-chain revocation validation from a bundle, reporting
// exactly which chain elements remain unchecked when only a leaf staple is
// available (the residual OCSP fetch a privacy-conscious client would
// otherwise have to make).
package chaincheck

import (
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
)

// Bundle carries one DER OCSP response per chain element, leaf first —
// the OCSPResponseList of RFC 6961 §2.2.
type Bundle struct {
	Responses [][]byte
}

// bundleASN1 is the DER envelope: SEQUENCE OF OCTET STRING.
type bundleASN1 struct {
	Responses [][]byte
}

// Marshal encodes the bundle.
func (b *Bundle) Marshal() ([]byte, error) {
	if len(b.Responses) == 0 {
		return nil, errors.New("chaincheck: empty bundle")
	}
	der, err := asn1.Marshal(bundleASN1{Responses: b.Responses})
	if err != nil {
		return nil, fmt.Errorf("chaincheck: marshal bundle: %w", err)
	}
	return der, nil
}

// ParseBundle decodes a bundle envelope.
func ParseBundle(der []byte) (*Bundle, error) {
	var w bundleASN1
	rest, err := asn1.Unmarshal(der, &w)
	if err != nil {
		return nil, fmt.Errorf("chaincheck: parse bundle: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("chaincheck: trailing data after bundle")
	}
	if len(w.Responses) == 0 {
		return nil, errors.New("chaincheck: bundle has no responses")
	}
	return &Bundle{Responses: w.Responses}, nil
}

// Fetcher obtains a fresh OCSP response DER for (cert, issuer); the server
// side of bundle building. Implementations use internal/ocsp.Fetch over
// HTTP or a direct responder call.
type Fetcher func(cert, issuer *x509.Certificate) ([]byte, error)

// BuildBundle assembles a bundle for a chain (leaf first, each element
// followed by its issuer; the root's status is not collected — roots are
// trust anchors and have no responder above them, matching RFC 6961).
func BuildBundle(chain []*x509.Certificate, fetch Fetcher) (*Bundle, error) {
	if len(chain) < 2 {
		return nil, errors.New("chaincheck: chain needs at least leaf and issuer")
	}
	b := &Bundle{}
	for i := 0; i+1 < len(chain); i++ {
		der, err := fetch(chain[i], chain[i+1])
		if err != nil {
			return nil, fmt.Errorf("chaincheck: fetch status for chain[%d] (%s): %w",
				i, chain[i].Subject.CommonName, err)
		}
		b.Responses = append(b.Responses, der)
	}
	return b, nil
}

// ElementStatus is the validation outcome for one chain element.
type ElementStatus int

const (
	// ElementGood: a valid, fresh response asserting Good.
	ElementGood ElementStatus = iota
	// ElementRevoked: a valid response asserting Revoked.
	ElementRevoked
	// ElementInvalid: a response was present but unusable (parse,
	// signature, serial, or validity-window failure).
	ElementInvalid
	// ElementUnchecked: no response covered this element — the client
	// would have to fall back to its own OCSP fetch (the latency and
	// privacy cost stapling exists to remove).
	ElementUnchecked
)

func (s ElementStatus) String() string {
	switch s {
	case ElementGood:
		return "good"
	case ElementRevoked:
		return "revoked"
	case ElementInvalid:
		return "invalid"
	case ElementUnchecked:
		return "unchecked"
	}
	return fmt.Sprintf("element(%d)", int(s))
}

// ChainResult is the full-chain verdict.
type ChainResult struct {
	// Elements holds one status per non-root chain element, leaf first.
	Elements []ElementStatus
}

// AllGood reports whether every element was positively validated Good.
func (r *ChainResult) AllGood() bool {
	for _, e := range r.Elements {
		if e != ElementGood {
			return false
		}
	}
	return len(r.Elements) > 0
}

// AnyRevoked reports whether any element is revoked — grounds for
// immediate rejection regardless of policy.
func (r *ChainResult) AnyRevoked() bool {
	for _, e := range r.Elements {
		if e == ElementRevoked {
			return true
		}
	}
	return false
}

// Unchecked returns the indices of elements no response covered.
func (r *ChainResult) Unchecked() []int {
	var out []int
	for i, e := range r.Elements {
		if e == ElementUnchecked {
			out = append(out, i)
		}
	}
	return out
}

// VerifyChain validates every non-root element of chain against the
// bundle at time now. A nil bundle models a plain status_request server
// (every element unchecked); a leaf-only bundle models today's standard
// stapling (intermediates unchecked — the §2.3 gap).
func VerifyChain(chain []*x509.Certificate, bundle *Bundle, now time.Time) (*ChainResult, error) {
	if len(chain) < 2 {
		return nil, errors.New("chaincheck: chain needs at least leaf and issuer")
	}
	res := &ChainResult{}
	for i := 0; i+1 < len(chain); i++ {
		res.Elements = append(res.Elements, verifyElement(chain[i], chain[i+1], bundle, i, now))
	}
	return res, nil
}

func verifyElement(cert, issuer *x509.Certificate, bundle *Bundle, idx int, now time.Time) ElementStatus {
	if bundle == nil || idx >= len(bundle.Responses) {
		return ElementUnchecked
	}
	der := bundle.Responses[idx]
	if len(der) == 0 {
		return ElementUnchecked
	}
	single, err := ocsp.VerifiedSingle(der, cert, issuer)
	if err != nil || !single.ValidAt(now) {
		return ElementInvalid
	}
	switch single.Status {
	case ocsp.Good:
		return ElementGood
	case ocsp.Revoked:
		return ElementRevoked
	default:
		return ElementInvalid
	}
}
