package ocsp

import (
	"crypto"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
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

// Wire structures (RFC 6960 §4.1.1). Request signing (optionalSignature) is
// intentionally unsupported: no public responder requires it and the paper's
// measurement client never signs requests.
type ocspRequestASN1 struct {
	TBSRequest tbsRequestASN1
}

type tbsRequestASN1 struct {
	Version       int           `asn1:"explicit,tag:0,default:0,optional"`
	RequestorName asn1.RawValue `asn1:"explicit,tag:1,optional"`
	RequestList   []singleRequestASN1
	Extensions    []extensionASN1 `asn1:"explicit,tag:2,optional"`
}

type singleRequestASN1 struct {
	CertID     certIDASN1
	Extensions []extensionASN1 `asn1:"explicit,tag:0,optional"`
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

// ParseRequest decodes a DER OCSP request.
func ParseRequest(der []byte) (*Request, error) {
	var w ocspRequestASN1
	rest, err := asn1.Unmarshal(der, &w)
	if err != nil {
		return nil, fmt.Errorf("ocsp: parse request: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("ocsp: trailing data after request")
	}
	if len(w.TBSRequest.RequestList) == 0 {
		return nil, errors.New("ocsp: request has empty requestList")
	}
	req := &Request{}
	for _, sr := range w.TBSRequest.RequestList {
		id, err := certIDFromASN1(sr.CertID)
		if err != nil {
			return nil, err
		}
		req.CertIDs = append(req.CertIDs, id)
	}
	if nonceDER := findNonce(w.TBSRequest.Extensions); nonceDER != nil {
		var nonce []byte
		if _, err := asn1.Unmarshal(nonceDER, &nonce); err != nil {
			// Some clients put the raw nonce bytes in the extension
			// value without the OCTET STRING wrapper; tolerate that.
			nonce = nonceDER
		}
		req.Nonce = nonce
	}
	return req, nil
}
