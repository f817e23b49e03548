package ocsp

import (
	"crypto"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// SingleResponse is the status assertion for one certificate inside an OCSP
// response (RFC 6960 §4.2.1).
type SingleResponse struct {
	CertID CertID
	Status CertStatus

	// RevokedAt and Reason are set when Status == Revoked. Reason is
	// pkixutil.ReasonAbsent when the responder included no reason code —
	// the overwhelmingly common case in the wild.
	RevokedAt time.Time
	Reason    pkixutil.ReasonCode

	// ThisUpdate is the time at which the status being indicated is
	// known to be correct; NextUpdate is when newer information will be
	// available. A zero NextUpdate means the responder left it blank
	// ("newer revocation information is always available"), which makes
	// the response technically valid forever — one of the quality
	// problems §5.4 of the paper studies (9.1% of responders).
	ThisUpdate time.Time
	NextUpdate time.Time
}

// HasNextUpdate reports whether the responder set a nextUpdate at all.
func (s *SingleResponse) HasNextUpdate() bool { return !s.NextUpdate.IsZero() }

// ValidAt reports whether the assertion is within its validity window at t.
// A blank nextUpdate never expires.
func (s *SingleResponse) ValidAt(t time.Time) bool {
	if t.Before(s.ThisUpdate) {
		return false
	}
	return s.NextUpdate.IsZero() || !t.After(s.NextUpdate)
}

// Response is a parsed OCSP response.
type Response struct {
	// Status is the outer OCSPResponseStatus. The remaining fields are
	// only meaningful when Status == StatusSuccessful.
	Status ResponseStatus

	// ProducedAt is when the responder generated (signed) this response.
	ProducedAt time.Time

	// Responses holds one SingleResponse per asserted certificate.
	// Responders may include unsolicited extras (Figure 7 of the paper).
	Responses []SingleResponse

	// Nonce echoes the request nonce, if the responder supports it.
	Nonce []byte

	// ResponderKeyHash or ResponderRawName identify the responder
	// (the byKey and byName arms of the ResponderID CHOICE).
	ResponderKeyHash []byte
	ResponderRawName []byte

	// Certificates are the certificates the responder chose to embed to
	// help signature validation. More than one is superfluous (Figure 6:
	// 14.5% of responders send extras; one sends a full chain of four
	// including the root).
	Certificates []*x509.Certificate

	// Signature material.
	SignatureAlgorithm asn1.ObjectIdentifier
	Signature          []byte

	// Raw is the full DER response; RawTBS is the DER of the signed
	// ResponseData.
	Raw    []byte
	RawTBS []byte
}

// Wire structures.
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
	SignatureAlgorithm pkixutil.AlgorithmIdentifier
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

// ResponderTemplate describes the responder identity and signing setup used
// by CreateResponse.
type ResponderTemplate struct {
	// Signer signs the ResponseData. Required.
	Signer crypto.Signer

	// Certificate is the certificate whose key Signer holds. Its key
	// hash becomes the byKey ResponderID unless ByName is set. Required.
	Certificate *x509.Certificate

	// IncludeCertificates are embedded in the certs field of the
	// BasicOCSPResponse. Responders using signature-authority delegation
	// include their delegated responder certificate here; misbehaving
	// responders include whole chains (the "superfluous certificates"
	// behavior of §5.4).
	IncludeCertificates []*x509.Certificate

	// ByName selects the byName ResponderID arm instead of byKey.
	ByName bool

	// Rand is the randomness source for signing; nil means crypto/rand
	// via the signer's default.
	Rand io.Reader

	// The marshalled ResponderID CHOICE is invariant for a template, so
	// it is computed once and reused across every response the template
	// signs.
	ridOnce sync.Once
	rid     []byte
	ridErr  error
}

// responderID returns the memoized ResponderID DER: the byKey arm hashes
// the responder certificate's public key (or byName wraps its subject),
// which never changes over a template's lifetime.
func (t *ResponderTemplate) responderID() ([]byte, error) {
	t.ridOnce.Do(func() {
		if t.ByName {
			t.rid = pkixutil.AppendElement(nil, pkixutil.TagContextExplicit|1, t.Certificate.RawSubject)
			return
		}
		keyHash, err := pkixutil.IssuerKeyHash(t.Certificate, crypto.SHA1)
		if err != nil {
			t.ridErr = err
			return
		}
		b, byKey := pkixutil.Begin(nil, pkixutil.TagContextExplicit|2)
		b = pkixutil.AppendElement(b, pkixutil.TagOctetString, keyHash)
		t.rid = pkixutil.End(b, byKey)
	})
	return t.rid, t.ridErr
}

// CreateResponse builds and signs a successful BasicOCSPResponse asserting
// the given single responses, produced at producedAt, echoing nonce if
// non-empty.
//
// The ResponseData is written into pooled scratch and signed from there;
// the BasicOCSPResponse and OCSPResponse envelopes around it then go into
// one allocation of exactly the response's size, because caches keep
// every response they are handed (DESIGN.md §17).
func CreateResponse(tmpl *ResponderTemplate, producedAt time.Time, singles []SingleResponse, nonce []byte) ([]byte, error) {
	if tmpl == nil || tmpl.Signer == nil || tmpl.Certificate == nil {
		return nil, errors.New("ocsp: incomplete responder template")
	}
	if len(singles) == 0 {
		return nil, errors.New("ocsp: no single responses")
	}
	rid, err := tmpl.responderID()
	if err != nil {
		return nil, err
	}

	scratch := pkixutil.GetBytes()
	defer pkixutil.PutBytes(scratch)
	tbs, err := appendResponseData(*scratch, rid, producedAt, singles, nonce)
	*scratch = tbs[:0] // the pool keeps the grown array
	if err != nil {
		return nil, err
	}
	sigAlg, sig, err := pkixutil.SignTBSDER(tmpl.Rand, tmpl.Signer, tbs)
	if err != nil {
		return nil, err
	}
	return envelope(tbs, sigAlg, sig, tmpl.IncludeCertificates), nil
}

// appendResponseData appends the DER ResponseData (RFC 6960 §4.2.1). The
// version is the default v1 and is omitted, as DER requires.
func appendResponseData(b, rid []byte, producedAt time.Time, singles []SingleResponse, nonce []byte) ([]byte, error) {
	b, rd := pkixutil.Begin(b, pkixutil.TagSequence)
	b = append(b, rid...)
	b, err := pkixutil.AppendGeneralizedTime(b, producedAt.UTC().Truncate(time.Second))
	if err != nil {
		return b, err
	}
	b, list := pkixutil.Begin(b, pkixutil.TagSequence)
	for i := range singles {
		if b, err = appendSingleResponse(b, &singles[i]); err != nil {
			return b, err
		}
	}
	b = pkixutil.End(b, list)
	if len(nonce) > 0 {
		b = appendNonceExtensions(b, 1, nonce)
	}
	return pkixutil.End(b, rd), nil
}

// appendSingleResponse appends one SingleResponse. A revocation without a
// reason code carries no reason field at all.
func appendSingleResponse(b []byte, s *SingleResponse) ([]byte, error) {
	b, sr := pkixutil.Begin(b, pkixutil.TagSequence)
	b, err := appendCertID(b, &s.CertID)
	if err != nil {
		return b, err
	}
	switch s.Status {
	case Good:
		b = append(b, pkixutil.TagContextPrimitive|0, 0)
	case Unknown:
		b = append(b, pkixutil.TagContextPrimitive|2, 0)
	case Revoked:
		// revokedInfo is a SEQUENCE implicitly tagged [1].
		var ri int
		b, ri = pkixutil.Begin(b, pkixutil.TagContextExplicit|1)
		if b, err = pkixutil.AppendGeneralizedTime(b, s.RevokedAt.UTC().Truncate(time.Second)); err != nil {
			return b, err
		}
		if s.Reason != pkixutil.ReasonAbsent {
			var rc int
			b, rc = pkixutil.Begin(b, pkixutil.TagContextExplicit|0)
			b = pkixutil.AppendEnumerated(b, int64(s.Reason))
			b = pkixutil.End(b, rc)
		}
		b = pkixutil.End(b, ri)
	default:
		return b, fmt.Errorf("ocsp: unsupported cert status %v", s.Status)
	}
	if b, err = pkixutil.AppendGeneralizedTime(b, s.ThisUpdate.UTC().Truncate(time.Second)); err != nil {
		return b, err
	}
	// A zero nextUpdate is the blank one (§5.4) and is omitted.
	if next := s.NextUpdate.UTC().Truncate(time.Second); !next.IsZero() {
		var nu int
		b, nu = pkixutil.Begin(b, pkixutil.TagContextExplicit|0)
		if b, err = pkixutil.AppendGeneralizedTime(b, next); err != nil {
			return b, err
		}
		b = pkixutil.End(b, nu)
	}
	return pkixutil.End(b, sr), nil
}

// envelope wraps signed ResponseData in the BasicOCSPResponse and the
// successful OCSPResponse around it, sizing everything first so the result
// is one exact-size allocation.
func envelope(tbs, sigAlg, sig []byte, certs []*x509.Certificate) []byte {
	basicLen := len(tbs) + len(sigAlg) + pkixutil.HeaderLen(1+len(sig)) + 1 + len(sig)
	certsLen := 0
	if len(certs) > 0 {
		for _, c := range certs {
			certsLen += len(c.Raw)
		}
		seqLen := pkixutil.HeaderLen(certsLen) + certsLen
		basicLen += pkixutil.HeaderLen(seqLen) + seqLen
	}
	basicTLV := pkixutil.HeaderLen(basicLen) + basicLen
	bytesLen := len(pkixutil.OIDOCSPBasicDER) + pkixutil.HeaderLen(basicTLV) + basicTLV
	bytesTLV := pkixutil.HeaderLen(bytesLen) + bytesLen
	outerLen := len(successfulStatus) + pkixutil.HeaderLen(bytesTLV) + bytesTLV

	out := make([]byte, 0, pkixutil.HeaderLen(outerLen)+outerLen)
	out = pkixutil.AppendHeader(out, pkixutil.TagSequence, outerLen)
	out = append(out, successfulStatus...)
	out = pkixutil.AppendHeader(out, pkixutil.TagContextExplicit|0, bytesTLV)
	out = pkixutil.AppendHeader(out, pkixutil.TagSequence, bytesLen)
	out = append(out, pkixutil.OIDOCSPBasicDER...)
	out = pkixutil.AppendHeader(out, pkixutil.TagOctetString, basicTLV)
	out = pkixutil.AppendHeader(out, pkixutil.TagSequence, basicLen)
	out = append(out, tbs...)
	out = append(out, sigAlg...)
	out = pkixutil.AppendBitString(out, sig)
	if len(certs) > 0 {
		out = pkixutil.AppendHeader(out, pkixutil.TagContextExplicit|0, pkixutil.HeaderLen(certsLen)+certsLen)
		out = pkixutil.AppendHeader(out, pkixutil.TagSequence, certsLen)
		for _, c := range certs {
			out = append(out, c.Raw...)
		}
	}
	return out
}

// successfulStatus is the DER ENUMERATED responseStatus successful(0).
var successfulStatus = []byte{pkixutil.TagEnumerated, 1, byte(StatusSuccessful)}

func appendErrorResponse(b []byte, status ResponseStatus) []byte {
	b, seq := pkixutil.Begin(b, pkixutil.TagSequence)
	b = pkixutil.AppendEnumerated(b, int64(status))
	return pkixutil.End(b, seq)
}

// errorResponses memoizes ErrorResponse per defined status code.
var errorResponses [8]struct {
	once sync.Once
	der  []byte
}

// ErrorResponse returns the DER of an unsigned OCSP error response
// (tryLater, internalError, ...), which per RFC 6960 has no
// responseBytes at all. It is built once per status: error responses
// depend only on the status, so one copy serves every responder. The slice is shared and must not be
// modified. It is nil for StatusSuccessful, which has no error form.
func ErrorResponse(status ResponseStatus) []byte {
	if status == StatusSuccessful {
		return nil
	}
	i := int(status)
	if i < 0 || i >= len(errorResponses) {
		return appendErrorResponse(nil, status)
	}
	e := &errorResponses[i]
	e.once.Do(func() { e.der = appendErrorResponse(nil, status) })
	return e.der
}

// ParseResponse decodes a DER OCSP response. It performs structural
// validation only; signature verification is a separate step
// (CheckSignatureFrom) so that the measurement pipeline can classify
// "parseable but badly signed" separately from "unparseable" — the two
// distinct error classes in Figure 5 of the paper.
func ParseResponse(der []byte) (*Response, error) {
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

// Find returns the SingleResponse matching id, or nil if the response does
// not cover it (a "serial unmatch" in the paper's error taxonomy).
func (r *Response) Find(id CertID) *SingleResponse {
	for i := range r.Responses {
		if r.Responses[i].CertID.Equal(id) {
			return &r.Responses[i]
		}
	}
	return nil
}

// CheckSignatureFrom verifies the response signature assuming issuer is the
// CA that issued the certificate being checked. Per RFC 6960 §4.2.2.2 the
// signature must come either from the issuer itself or from a delegated
// responder: a certificate embedded in the response that is signed by the
// issuer and carries the id-kp-OCSPSigning EKU.
func (r *Response) CheckSignatureFrom(issuer *x509.Certificate) error {
	if r.Status != StatusSuccessful {
		return errors.New("ocsp: cannot verify signature of non-successful response")
	}
	// Direct signature by the issuer?
	directErr := pkixutil.VerifyTBS(issuer.PublicKey, r.SignatureAlgorithm, r.RawTBS, r.Signature)
	if directErr == nil {
		return nil
	}
	// Delegated responder certificate?
	for _, c := range r.Certificates {
		if err := c.CheckSignatureFrom(issuer); err != nil {
			continue
		}
		if !hasOCSPSigningEKU(c) {
			continue
		}
		if err := pkixutil.VerifyTBS(c.PublicKey, r.SignatureAlgorithm, r.RawTBS, r.Signature); err == nil {
			return nil
		}
	}
	return fmt.Errorf("ocsp: signature verification failed: %w", directErr)
}

// VerifiedSingle runs the client-side staple check a Must-Staple
// hard-fail rests on (§6): der must parse as a successful response, be
// signed by issuer or by a delegated responder issuer certified for OCSP
// signing (CheckSignatureFrom), and cover cert under the CertID hash of
// its first single response (SHA-1 if it has none). It returns that
// single response; judging its validity window and status is the
// caller's.
func VerifiedSingle(der []byte, cert, issuer *x509.Certificate) (*SingleResponse, error) {
	resp, err := ParseResponse(der)
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusSuccessful {
		return nil, fmt.Errorf("ocsp: response status %v", resp.Status)
	}
	if err := resp.CheckSignatureFrom(issuer); err != nil {
		return nil, err
	}
	h := crypto.SHA1
	if len(resp.Responses) > 0 {
		h = resp.Responses[0].CertID.HashAlgorithm
	}
	id, err := NewCertID(cert, issuer, h)
	if err != nil {
		return nil, err
	}
	single := resp.Find(id)
	if single == nil {
		return nil, errors.New("ocsp: response does not cover the certificate")
	}
	return single, nil
}

func hasOCSPSigningEKU(c *x509.Certificate) bool {
	for _, eku := range c.ExtKeyUsage {
		if eku == x509.ExtKeyUsageOCSPSigning {
			return true
		}
	}
	return false
}
