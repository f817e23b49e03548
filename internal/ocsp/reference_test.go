package ocsp

import (
	"crypto"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// The reference codec below is the encoding/asn1 reflection codec the DER
// writer and reader replaced: the wire structs, the encoders the writer
// must match byte for byte (differential_test.go, golden_test.go), and
// the parsers whose verdicts and fields the reader must match
// (parse_differential_test.go).

// algorithmIdentifierASN1 is the encoding/asn1 wire form of an
// AlgorithmIdentifier.
type algorithmIdentifierASN1 struct {
	Algorithm  asn1.ObjectIdentifier
	Parameters asn1.RawValue `asn1:"optional"`
}

// hashOIDs maps each CertID hash to its OBJECT IDENTIFIER.
var hashOIDs = map[crypto.Hash]asn1.ObjectIdentifier{
	crypto.SHA1:   pkixutil.OIDSHA1,
	crypto.SHA256: pkixutil.OIDSHA256,
	crypto.SHA384: pkixutil.OIDSHA384,
	crypto.SHA512: pkixutil.OIDSHA512,
}

func hashOID(h crypto.Hash) (asn1.ObjectIdentifier, error) {
	if oid, ok := hashOIDs[h]; ok {
		return oid, nil
	}
	return nil, fmt.Errorf("pkixutil: unsupported hash %v", h)
}

func hashFromOID(oid asn1.ObjectIdentifier) (crypto.Hash, error) {
	for h, o := range hashOIDs {
		if o.Equal(oid) {
			return h, nil
		}
	}
	return 0, fmt.Errorf("pkixutil: unknown hash OID %v", oid)
}

// Wire structures (RFC 6960 §4.1.1, §4.2.1).
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

type certIDASN1 struct {
	HashAlgorithm  algorithmIdentifierASN1
	IssuerNameHash []byte
	IssuerKeyHash  []byte
	Serial         *big.Int
}

// extensionASN1 mirrors pkix.Extension without importing crypto/x509/pkix
// into the wire structures.
type extensionASN1 struct {
	ID       asn1.ObjectIdentifier
	Critical bool `asn1:"optional"`
	Value    []byte
}

type ocspResponseASN1 struct {
	Status        asn1.Enumerated
	ResponseBytes responseBytesASN1 `asn1:"explicit,tag:0,optional"`
}

type responseBytesASN1 struct {
	ResponseType asn1.ObjectIdentifier
	Response     []byte
}

type basicResponseASN1 struct {
	TBSResponseData    asn1.RawValue
	SignatureAlgorithm algorithmIdentifierASN1
	Signature          asn1.BitString
	Certificates       []asn1.RawValue `asn1:"explicit,tag:0,optional"`
}

type responseDataASN1 struct {
	Version     int           `asn1:"explicit,tag:0,default:0,optional"`
	ResponderID asn1.RawValue // CHOICE { byName [1] Name, byKey [2] OCTET STRING }
	ProducedAt  time.Time     `asn1:"generalized"`
	Responses   []singleResponseASN1
	Extensions  []extensionASN1 `asn1:"explicit,tag:1,optional"`
}

type singleResponseASN1 struct {
	CertID     certIDASN1
	CertStatus asn1.RawValue   // CHOICE, context tags 0/1/2
	ThisUpdate time.Time       `asn1:"generalized"`
	NextUpdate time.Time       `asn1:"generalized,explicit,tag:0,optional"`
	Extensions []extensionASN1 `asn1:"explicit,tag:1,optional"`
}

type revokedInfoASN1 struct {
	RevocationTime time.Time       `asn1:"generalized"`
	Reason         asn1.Enumerated `asn1:"explicit,tag:0,optional,default:-1"`
}

// referenceParseRequest is ParseRequest on encoding/asn1.
func referenceParseRequest(der []byte) (*Request, error) {
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

// referenceParseResponse is ParseResponse on encoding/asn1.
func referenceParseResponse(der []byte) (*Response, error) {
	var w ocspResponseASN1
	rest, err := asn1.Unmarshal(der, &w)
	if err != nil {
		return nil, fmt.Errorf("ocsp: parse response: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("ocsp: trailing data after response")
	}
	resp := &Response{Status: ResponseStatus(w.Status), Raw: der}
	if !resp.Status.Valid() {
		return nil, fmt.Errorf("ocsp: undefined response status %d", int(w.Status))
	}
	if resp.Status != StatusSuccessful {
		return resp, nil
	}
	if !w.ResponseBytes.ResponseType.Equal(pkixutil.OIDOCSPBasic) {
		return nil, fmt.Errorf("ocsp: unsupported response type %v", w.ResponseBytes.ResponseType)
	}

	var basic basicResponseASN1
	rest, err = asn1.Unmarshal(w.ResponseBytes.Response, &basic)
	if err != nil {
		return nil, fmt.Errorf("ocsp: parse basicResponse: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("ocsp: trailing data after basicResponse")
	}

	resp.RawTBS = basic.TBSResponseData.FullBytes
	resp.SignatureAlgorithm = basic.SignatureAlgorithm.Algorithm
	resp.Signature = basic.Signature.RightAlign()

	var rd responseDataASN1
	rest, err = asn1.Unmarshal(basic.TBSResponseData.FullBytes, &rd)
	if err != nil {
		return nil, fmt.Errorf("ocsp: parse responseData: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("ocsp: trailing data after responseData")
	}
	resp.ProducedAt = rd.ProducedAt

	switch rd.ResponderID.Tag {
	case 1: // byName
		resp.ResponderRawName = rd.ResponderID.Bytes
	case 2: // byKey
		var kh []byte
		if _, err := asn1.Unmarshal(rd.ResponderID.Bytes, &kh); err != nil {
			return nil, fmt.Errorf("ocsp: parse responder key hash: %w", err)
		}
		resp.ResponderKeyHash = kh
	default:
		return nil, fmt.Errorf("ocsp: invalid responderID tag %d", rd.ResponderID.Tag)
	}

	if len(rd.Responses) == 0 {
		return nil, errors.New("ocsp: successful response with no single responses")
	}
	resp.Responses = make([]SingleResponse, 0, len(rd.Responses))
	for _, sw := range rd.Responses {
		s, err := singleFromASN1(sw)
		if err != nil {
			return nil, err
		}
		resp.Responses = append(resp.Responses, s)
	}

	if nonceDER := findNonce(rd.Extensions); nonceDER != nil {
		var nonce []byte
		if _, err := asn1.Unmarshal(nonceDER, &nonce); err != nil {
			nonce = nonceDER
		}
		resp.Nonce = nonce
	}

	for _, raw := range basic.Certificates {
		c, err := x509.ParseCertificate(raw.FullBytes)
		if err != nil {
			return nil, fmt.Errorf("ocsp: parse embedded certificate: %w", err)
		}
		resp.Certificates = append(resp.Certificates, c)
	}

	return resp, nil
}

func singleFromASN1(w singleResponseASN1) (SingleResponse, error) {
	id, err := certIDFromASN1(w.CertID)
	if err != nil {
		return SingleResponse{}, err
	}
	s := SingleResponse{
		CertID:     id,
		ThisUpdate: w.ThisUpdate,
		NextUpdate: w.NextUpdate,
		Reason:     pkixutil.ReasonAbsent,
	}
	if w.CertStatus.Class != asn1.ClassContextSpecific {
		return SingleResponse{}, fmt.Errorf("ocsp: certStatus has class %d", w.CertStatus.Class)
	}
	switch w.CertStatus.Tag {
	case 0:
		s.Status = Good
	case 2:
		s.Status = Unknown
	case 1:
		s.Status = Revoked
		// Rebuild the SEQUENCE from the implicitly tagged contents.
		seq, err := asn1.Marshal(asn1.RawValue{
			Class:      asn1.ClassUniversal,
			Tag:        asn1.TagSequence,
			IsCompound: true,
			Bytes:      w.CertStatus.Bytes,
		})
		if err != nil {
			return SingleResponse{}, err
		}
		var ri revokedInfoASN1
		ri.Reason = asn1.Enumerated(pkixutil.ReasonAbsent)
		if _, err := asn1.Unmarshal(seq, &ri); err != nil {
			return SingleResponse{}, fmt.Errorf("ocsp: parse revokedInfo: %w", err)
		}
		s.RevokedAt = ri.RevocationTime
		s.Reason = pkixutil.ReasonCode(ri.Reason)
	default:
		return SingleResponse{}, fmt.Errorf("ocsp: certStatus has tag %d", w.CertStatus.Tag)
	}
	return s, nil
}

func certIDFromASN1(w certIDASN1) (CertID, error) {
	h, err := hashFromOID(w.HashAlgorithm.Algorithm)
	if err != nil {
		return CertID{}, fmt.Errorf("ocsp: CertID hash: %w", err)
	}
	return CertID{
		HashAlgorithm:  h,
		IssuerNameHash: w.IssuerNameHash,
		IssuerKeyHash:  w.IssuerKeyHash,
		Serial:         w.Serial,
	}, nil
}

func findNonce(exts []extensionASN1) []byte {
	for _, e := range exts {
		if e.ID.Equal(pkixutil.OIDOCSPNonce) {
			return e.Value
		}
	}
	return nil
}

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

	sigAlgDER, sig, err := pkixutil.SignTBS(tmpl.Rand, tmpl.Signer, tbs)
	if err != nil {
		return nil, err
	}
	var sigAlg algorithmIdentifierASN1
	if _, err := asn1.Unmarshal(sigAlgDER, &sigAlg); err != nil {
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
	oid, err := hashOID(c.HashAlgorithm)
	if err != nil {
		return certIDASN1{}, err
	}
	if c.Serial == nil {
		return certIDASN1{}, fmt.Errorf("ocsp: CertID has nil serial")
	}
	return certIDASN1{
		HashAlgorithm:  algorithmIdentifierASN1{Algorithm: oid, Parameters: asn1.RawValue{Tag: asn1.TagNull}},
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
