package ocsp

import (
	"crypto"
	"crypto/x509"
	"errors"
	"math/big"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// Request is a parsed or to-be-marshalled OCSP request. It may carry more
// than one CertID (RFC 6960 allows a requestList with multiple entries).
type Request struct {
	// CertIDs are the certificates whose status is requested; at least
	// one is required.
	CertIDs []CertID
	// Nonce, if non-empty, is carried in the id-pkix-ocsp-nonce request
	// extension to bind the response to this request.
	Nonce []byte
}

// NewRequest builds a single-certificate request for cert issued by issuer.
func NewRequest(cert, issuer *x509.Certificate, h crypto.Hash) (*Request, error) {
	id, err := NewCertID(cert, issuer, h)
	if err != nil {
		return nil, err
	}
	return &Request{CertIDs: []CertID{id}}, nil
}

// NewRequestForSerial builds a request for a bare (issuer, serial) pair.
func NewRequestForSerial(serial *big.Int, issuer *x509.Certificate, h crypto.Hash) (*Request, error) {
	id, err := NewCertIDForSerial(serial, issuer, h)
	if err != nil {
		return nil, err
	}
	return &Request{CertIDs: []CertID{id}}, nil
}

// Marshal encodes the request as DER.
func (r *Request) Marshal() ([]byte, error) {
	if len(r.CertIDs) == 0 {
		return nil, errors.New("ocsp: request has no CertIDs")
	}
	b, req := pkixutil.Begin(nil, pkixutil.TagSequence)
	b, tbs := pkixutil.Begin(b, pkixutil.TagSequence)
	b, list := pkixutil.Begin(b, pkixutil.TagSequence)
	for i := range r.CertIDs {
		var single int
		var err error
		b, single = pkixutil.Begin(b, pkixutil.TagSequence)
		if b, err = appendCertID(b, &r.CertIDs[i]); err != nil {
			return nil, err
		}
		b = pkixutil.End(b, single)
	}
	b = pkixutil.End(b, list)
	if len(r.Nonce) > 0 {
		b = appendNonceExtensions(b, 2, r.Nonce)
	}
	b = pkixutil.End(b, tbs)
	return pkixutil.End(b, req), nil
}

// ParseRequest decodes a DER OCSP request (RFC 6960 §4.1.1):
//
//	OCSPRequest ::= SEQUENCE { tbsRequest, optionalSignature [0] }
//	TBSRequest  ::= SEQUENCE { version [0], requestorName [1],
//	                           requestList SEQUENCE OF Request,
//	                           requestExtensions [2] }
//	Request     ::= SEQUENCE { reqCert CertID, singleRequestExtensions [0] }
//
// Request signing (optionalSignature) is intentionally unsupported: no
// public responder requires it and the paper's measurement client never
// signs requests, so the signature, like anything after the fields read
// here, is skipped. The CertID hashes and the nonce are copied out of
// der, which the serving tier reuses for the next request.
func ParseRequest(der []byte) (*Request, error) {
	in := pkixutil.Input(der)
	var req, tbs, list, exts, e pkixutil.Element
	var hasExts, present bool
	if !in.ReadElement(&req, pkixutil.TagSequence) ||
		!req.Content.ReadElement(&tbs, pkixutil.TagSequence) ||
		!readVersion(&tbs.Content) ||
		!tbs.Content.ReadOptionalExplicit(&e, &present, 1, pkixutil.AnyTag) ||
		!tbs.Content.ReadElement(&list, pkixutil.TagSequence) ||
		!tbs.Content.ReadOptionalExplicit(&exts, &hasExts, 2, pkixutil.TagSequence) {
		return nil, errors.New("ocsp: parse request: malformed OCSPRequest")
	}
	if len(in) != 0 {
		return nil, errors.New("ocsp: trailing data after request")
	}
	n, ok := list.Content.CountElements(pkixutil.TagSequence)
	if !ok {
		return nil, errors.New("ocsp: parse request: malformed requestList")
	}
	if n == 0 {
		return nil, errors.New("ocsp: request has empty requestList")
	}
	r := &Request{CertIDs: make([]CertID, 0, n)}
	for items := list.Content; len(items) > 0; {
		var single pkixutil.Element
		items.ReadElement(&single, pkixutil.TagSequence) // CountElements checked it
		id, err := readCertID(&single.Content)
		if err != nil {
			return nil, err
		}
		if !single.Content.ReadOptionalExplicit(&e, &present, 0, pkixutil.TagSequence) ||
			present && !validExtensions(e.Content) {
			return nil, errors.New("ocsp: parse request: malformed singleRequestExtensions")
		}
		r.CertIDs = append(r.CertIDs, id)
	}
	if hasExts {
		if r.Nonce, ok = readExtensions(exts.Content); !ok {
			return nil, errors.New("ocsp: parse request: malformed requestExtensions")
		}
	}
	return r, nil
}
