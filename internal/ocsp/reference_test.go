package ocsp

import (
	"crypto"
	"encoding/asn1"
	"errors"
	"fmt"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// The reference encoders below are the encoding/asn1 reflection encoders
// the DER writer replaced. They marshal the same wire structs ParseResponse
// and ParseRequest decode, and serve as the oracle the writer must match
// byte for byte (differential_test.go, golden_test.go).

func referenceCreateResponse(tmpl *ResponderTemplate, producedAt time.Time, singles []SingleResponse, nonce []byte) ([]byte, error) {
	if tmpl == nil || tmpl.Signer == nil || tmpl.Certificate == nil {
		return nil, errors.New("ocsp: incomplete responder template")
	}
	if len(singles) == 0 {
		return nil, errors.New("ocsp: no single responses")
	}

	var rd responseDataASN1
	rd.ProducedAt = producedAt.UTC().Truncate(time.Second)
	rid, err := referenceResponderID(tmpl)
	if err != nil {
		return nil, err
	}
	rd.ResponderID = rid
	for _, s := range singles {
		w, err := referenceSingle(s)
		if err != nil {
			return nil, err
		}
		rd.Responses = append(rd.Responses, w)
	}
	if len(nonce) > 0 {
		nonceDER, err := asn1.Marshal(nonce)
		if err != nil {
			return nil, err
		}
		rd.Extensions = []extensionASN1{{ID: pkixutil.OIDOCSPNonce, Value: nonceDER}}
	}
	tbs, err := asn1.Marshal(rd)
	if err != nil {
		return nil, fmt.Errorf("ocsp: marshal responseData: %w", err)
	}

	sigAlg, sig, err := pkixutil.SignTBS(tmpl.Rand, tmpl.Signer, tbs)
	if err != nil {
		return nil, err
	}
	basic := basicResponseASN1{
		TBSResponseData:    asn1.RawValue{FullBytes: tbs},
		SignatureAlgorithm: sigAlg,
		Signature:          asn1.BitString{Bytes: sig, BitLength: len(sig) * 8},
	}
	for _, c := range tmpl.IncludeCertificates {
		basic.Certificates = append(basic.Certificates, asn1.RawValue{FullBytes: c.Raw})
	}
	basicDER, err := asn1.Marshal(basic)
	if err != nil {
		return nil, fmt.Errorf("ocsp: marshal basicResponse: %w", err)
	}
	return asn1.Marshal(ocspResponseASN1{
		Status:        asn1.Enumerated(StatusSuccessful),
		ResponseBytes: responseBytesASN1{ResponseType: pkixutil.OIDOCSPBasic, Response: basicDER},
	})
}

func referenceResponderID(tmpl *ResponderTemplate) (asn1.RawValue, error) {
	if tmpl.ByName {
		return referenceExplicit(1, tmpl.Certificate.RawSubject)
	}
	keyHash, err := pkixutil.IssuerKeyHash(tmpl.Certificate, crypto.SHA1)
	if err != nil {
		return asn1.RawValue{}, err
	}
	keyDER, err := asn1.Marshal(keyHash)
	if err != nil {
		return asn1.RawValue{}, err
	}
	return referenceExplicit(2, keyDER)
}

func referenceSingle(s SingleResponse) (singleResponseASN1, error) {
	idW, err := referenceCertID(s.CertID)
	if err != nil {
		return singleResponseASN1{}, err
	}
	w := singleResponseASN1{
		CertID:     idW,
		ThisUpdate: s.ThisUpdate.UTC().Truncate(time.Second),
	}
	if !s.NextUpdate.IsZero() {
		w.NextUpdate = s.NextUpdate.UTC().Truncate(time.Second)
	}
	switch s.Status {
	case Good:
		w.CertStatus = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 0}
	case Unknown:
		w.CertStatus = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 2}
	case Revoked:
		ri := revokedInfoASN1{
			RevocationTime: s.RevokedAt.UTC().Truncate(time.Second),
			Reason:         asn1.Enumerated(pkixutil.ReasonAbsent),
		}
		if s.Reason != pkixutil.ReasonAbsent {
			ri.Reason = asn1.Enumerated(s.Reason)
		}
		riDER, err := asn1.Marshal(ri)
		if err != nil {
			return singleResponseASN1{}, fmt.Errorf("ocsp: marshal revokedInfo: %w", err)
		}
		// Re-tag the SEQUENCE as implicit [1].
		var raw asn1.RawValue
		if _, err := asn1.Unmarshal(riDER, &raw); err != nil {
			return singleResponseASN1{}, err
		}
		w.CertStatus = asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 1, IsCompound: true, Bytes: raw.Bytes}
	default:
		return singleResponseASN1{}, fmt.Errorf("ocsp: unsupported cert status %v", s.Status)
	}
	return w, nil
}

func referenceCertID(c CertID) (certIDASN1, error) {
	oid, err := pkixutil.HashOID(c.HashAlgorithm)
	if err != nil {
		return certIDASN1{}, err
	}
	if c.Serial == nil {
		return certIDASN1{}, fmt.Errorf("ocsp: CertID has nil serial")
	}
	return certIDASN1{
		HashAlgorithm:  pkixutil.AlgorithmIdentifier{Algorithm: oid, Parameters: asn1.RawValue{Tag: asn1.TagNull}},
		IssuerNameHash: c.IssuerNameHash,
		IssuerKeyHash:  c.IssuerKeyHash,
		Serial:         c.Serial,
	}, nil
}

func referenceExplicit(tag int, inner []byte) (asn1.RawValue, error) {
	b, err := asn1.Marshal(asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: tag, IsCompound: true, Bytes: inner})
	if err != nil {
		return asn1.RawValue{}, err
	}
	return asn1.RawValue{FullBytes: b}, nil
}

func referenceRequestMarshal(r *Request) ([]byte, error) {
	if len(r.CertIDs) == 0 {
		return nil, errors.New("ocsp: request has no CertIDs")
	}
	var tbs tbsRequestASN1
	for _, id := range r.CertIDs {
		w, err := referenceCertID(id)
		if err != nil {
			return nil, err
		}
		tbs.RequestList = append(tbs.RequestList, singleRequestASN1{CertID: w})
	}
	if len(r.Nonce) > 0 {
		nonceDER, err := asn1.Marshal(r.Nonce)
		if err != nil {
			return nil, err
		}
		tbs.Extensions = []extensionASN1{{ID: pkixutil.OIDOCSPNonce, Value: nonceDER}}
	}
	return asn1.Marshal(ocspRequestASN1{TBSRequest: tbs})
}

func referenceErrorResponse(status ResponseStatus) ([]byte, error) {
	return asn1.Marshal(struct{ Status asn1.Enumerated }{asn1.Enumerated(status)})
}
