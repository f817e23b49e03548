// Package pkixutil provides the low-level PKIX plumbing shared by the
// from-scratch OCSP (RFC 6960) and CRL (RFC 5280) codecs: object
// identifiers, AlgorithmIdentifier handling, TBS signing and verification,
// revocation reason codes, and the issuer name/key hashing used by OCSP
// CertIDs.
//
// The OCSP encoders are built on this package's append-style DER writer
// (der.go), which emits the same bytes encoding/asn1 would without
// reflection. The parsers, the CRL codec and the one-time setup of
// precomputed identifiers still use encoding/asn1. Everything is standard
// library only; no golang.org/x/crypto dependency is used anywhere in this
// module.
package pkixutil

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/rsa"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"io"
)

// Object identifiers used throughout the module.
var (
	// Hash algorithms.
	OIDSHA1   = asn1.ObjectIdentifier{1, 3, 14, 3, 2, 26}
	OIDSHA256 = asn1.ObjectIdentifier{2, 16, 840, 1, 101, 3, 4, 2, 1}
	OIDSHA384 = asn1.ObjectIdentifier{2, 16, 840, 1, 101, 3, 4, 2, 2}
	OIDSHA512 = asn1.ObjectIdentifier{2, 16, 840, 1, 101, 3, 4, 2, 3}

	// Signature algorithms.
	OIDSignatureSHA1WithRSA     = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 5}
	OIDSignatureSHA256WithRSA   = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 11}
	OIDSignatureSHA384WithRSA   = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 12}
	OIDSignatureSHA512WithRSA   = asn1.ObjectIdentifier{1, 2, 840, 113549, 1, 1, 13}
	OIDSignatureECDSAWithSHA1   = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 1}
	OIDSignatureECDSAWithSHA256 = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 2}
	OIDSignatureECDSAWithSHA384 = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 3}
	OIDSignatureECDSAWithSHA512 = asn1.ObjectIdentifier{1, 2, 840, 10045, 4, 3, 4}

	// OCSP.
	OIDOCSPBasic = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 48, 1, 1}
	OIDOCSPNonce = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 48, 1, 2}

	// X.509 extensions.
	OIDExtensionCRLNumber  = asn1.ObjectIdentifier{2, 5, 29, 20}
	OIDExtensionReasonCode = asn1.ObjectIdentifier{2, 5, 29, 21}

	// OIDExtensionTLSFeature is the X.509v3 TLS Feature extension (RFC
	// 7633). A TLS feature list containing status_request (5) is the "OCSP
	// Must-Staple" extension the paper studies; its OID is
	// 1.3.6.1.5.5.7.1.24.
	OIDExtensionTLSFeature = asn1.ObjectIdentifier{1, 3, 6, 1, 5, 5, 7, 1, 24}
)

// AlgorithmIdentifier mirrors the ASN.1 AlgorithmIdentifier structure.
// It is identical in shape to crypto/x509/pkix.AlgorithmIdentifier but
// redeclared here so that the codecs in this module are self-contained.
type AlgorithmIdentifier struct {
	Algorithm  asn1.ObjectIdentifier
	Parameters asn1.RawValue `asn1:"optional"`
}

// asn1NULL is the DER encoding of an ASN.1 NULL, required as the parameter
// field of RSA signature AlgorithmIdentifiers.
var asn1NULL = asn1.RawValue{Tag: asn1.TagNull}

// HashOID returns the OID for a supported crypto.Hash.
//
//lint:allow unused the encoding/asn1 oracle in ocsp/reference_test.go encodes CertIDs with it
func HashOID(h crypto.Hash) (asn1.ObjectIdentifier, error) {
	switch h {
	case crypto.SHA1:
		return OIDSHA1, nil
	case crypto.SHA256:
		return OIDSHA256, nil
	case crypto.SHA384:
		return OIDSHA384, nil
	case crypto.SHA512:
		return OIDSHA512, nil
	}
	return nil, fmt.Errorf("pkixutil: unsupported hash %v", h)
}

// HashFromOID is the inverse of HashOID.
func HashFromOID(oid asn1.ObjectIdentifier) (crypto.Hash, error) {
	switch {
	case oid.Equal(OIDSHA1):
		return crypto.SHA1, nil
	case oid.Equal(OIDSHA256):
		return crypto.SHA256, nil
	case oid.Equal(OIDSHA384):
		return crypto.SHA384, nil
	case oid.Equal(OIDSHA512):
		return crypto.SHA512, nil
	}
	return 0, fmt.Errorf("pkixutil: unknown hash OID %v", oid)
}

// hashAlgorithmIDs holds the DER AlgorithmIdentifier of each hash
// HashOID supports, as used inside OCSP CertIDs.
var hashAlgorithmIDs = map[crypto.Hash][]byte{
	crypto.SHA1:   mustDER(AlgorithmIdentifier{Algorithm: OIDSHA1, Parameters: asn1NULL}),
	crypto.SHA256: mustDER(AlgorithmIdentifier{Algorithm: OIDSHA256, Parameters: asn1NULL}),
	crypto.SHA384: mustDER(AlgorithmIdentifier{Algorithm: OIDSHA384, Parameters: asn1NULL}),
	crypto.SHA512: mustDER(AlgorithmIdentifier{Algorithm: OIDSHA512, Parameters: asn1NULL}),
}

// HashAlgorithmIdentifierDER returns the DER AlgorithmIdentifier for a
// hash as used inside OCSP CertIDs. RFC 6960 encodes the SHA-1 identifier
// with an explicit NULL parameter, matching OpenSSL; we do the same for
// every hash, for compatibility. The slice is shared: do not modify it.
func HashAlgorithmIdentifierDER(h crypto.Hash) ([]byte, error) {
	if der, ok := hashAlgorithmIDs[h]; ok {
		return der, nil
	}
	return nil, fmt.Errorf("pkixutil: unsupported hash %v", h)
}

// SignatureAlgorithm describes a signature scheme supported by SignTBS and
// VerifyTBS.
type SignatureAlgorithm struct {
	OID           asn1.ObjectIdentifier
	Hash          crypto.Hash
	IsRSA         bool
	HasNULLParams bool // RSA identifiers carry an explicit NULL parameter
}

var signatureAlgorithms = []SignatureAlgorithm{
	{OIDSignatureSHA256WithRSA, crypto.SHA256, true, true},
	{OIDSignatureSHA384WithRSA, crypto.SHA384, true, true},
	{OIDSignatureSHA512WithRSA, crypto.SHA512, true, true},
	{OIDSignatureSHA1WithRSA, crypto.SHA1, true, true},
	{OIDSignatureECDSAWithSHA256, crypto.SHA256, false, false},
	{OIDSignatureECDSAWithSHA384, crypto.SHA384, false, false},
	{OIDSignatureECDSAWithSHA512, crypto.SHA512, false, false},
	{OIDSignatureECDSAWithSHA1, crypto.SHA1, false, false},
}

// SignatureAlgorithmByOID looks up a supported signature algorithm.
func SignatureAlgorithmByOID(oid asn1.ObjectIdentifier) (SignatureAlgorithm, error) {
	for _, alg := range signatureAlgorithms {
		if alg.OID.Equal(oid) {
			return alg, nil
		}
	}
	return SignatureAlgorithm{}, fmt.Errorf("pkixutil: unsupported signature algorithm %v", oid)
}

// signScheme is a signature scheme SignTBS signs with: SHA-256 with the
// signer's key family, its AlgorithmIdentifier as a struct (for the
// encoding/asn1 CRL codec) and as precomputed DER (for the DER writer).
type signScheme struct {
	family string
	id     AlgorithmIdentifier
	der    []byte
}

var (
	schemeRSA   = newSignScheme("RSA", AlgorithmIdentifier{Algorithm: OIDSignatureSHA256WithRSA, Parameters: asn1NULL})
	schemeECDSA = newSignScheme("ECDSA", AlgorithmIdentifier{Algorithm: OIDSignatureECDSAWithSHA256})
)

func newSignScheme(family string, id AlgorithmIdentifier) *signScheme {
	return &signScheme{family: family, id: id, der: mustDER(id)}
}

// schemeForKey picks the scheme for the signer's key family.
func schemeForKey(signer crypto.Signer) (*signScheme, error) {
	switch signer.Public().(type) {
	case *rsa.PublicKey:
		return schemeRSA, nil
	case *ecdsa.PublicKey:
		return schemeECDSA, nil
	default:
		return nil, fmt.Errorf("pkixutil: unsupported key type %T", signer.Public())
	}
}

// SignatureAlgorithmForKey returns the AlgorithmIdentifier SignTBS will use
// for the given signer's key family, without signing anything. CRL encoding
// needs this because the inner tbsCertList carries a copy of the signature
// algorithm that must be fixed before signing.
func SignatureAlgorithmForKey(signer crypto.Signer) (AlgorithmIdentifier, error) {
	s, err := schemeForKey(signer)
	if err != nil {
		return AlgorithmIdentifier{}, err
	}
	return s.id, nil
}

// SignTBS signs the DER encoding of a to-be-signed structure with the given
// signer, choosing SHA-256 with the signer's key family (RSA PKCS#1 v1.5 or
// ECDSA). It returns the AlgorithmIdentifier to embed alongside the
// signature.
func SignTBS(rand io.Reader, signer crypto.Signer, tbs []byte) (AlgorithmIdentifier, []byte, error) {
	s, sig, err := signTBS(rand, signer, tbs)
	if err != nil {
		return AlgorithmIdentifier{}, nil, err
	}
	return s.id, sig, nil
}

// SignTBSDER is SignTBS for the DER writer: it returns the
// AlgorithmIdentifier as precomputed DER. The slice is shared: do not
// modify it.
func SignTBSDER(rand io.Reader, signer crypto.Signer, tbs []byte) ([]byte, []byte, error) {
	s, sig, err := signTBS(rand, signer, tbs)
	if err != nil {
		return nil, nil, err
	}
	return s.der, sig, nil
}

func signTBS(rand io.Reader, signer crypto.Signer, tbs []byte) (*signScheme, []byte, error) {
	s, err := schemeForKey(signer)
	if err != nil {
		return nil, nil, err
	}
	digest := sha256.Sum256(tbs)
	sig, err := signer.Sign(rand, digest[:], crypto.SHA256)
	if err != nil {
		return nil, nil, fmt.Errorf("pkixutil: %s sign: %w", s.family, err)
	}
	return s, sig, nil
}

// VerifyTBS verifies a signature over a TBS blob produced by SignTBS or any
// other RFC-conformant signer using one of the supported algorithms.
func VerifyTBS(pub crypto.PublicKey, algOID asn1.ObjectIdentifier, tbs, sig []byte) error {
	alg, err := SignatureAlgorithmByOID(algOID)
	if err != nil {
		return err
	}
	if !alg.Hash.Available() {
		return fmt.Errorf("pkixutil: hash %v unavailable", alg.Hash)
	}
	h := alg.Hash.New()
	h.Write(tbs)
	digest := h.Sum(nil)

	switch pub := pub.(type) {
	case *rsa.PublicKey:
		if !alg.IsRSA {
			return errors.New("pkixutil: signature algorithm does not match RSA key")
		}
		if err := rsa.VerifyPKCS1v15(pub, alg.Hash, digest, sig); err != nil {
			return fmt.Errorf("pkixutil: RSA signature invalid: %w", err)
		}
		return nil
	case *ecdsa.PublicKey:
		if alg.IsRSA {
			return errors.New("pkixutil: signature algorithm does not match ECDSA key")
		}
		if !ecdsa.VerifyASN1(pub, digest, sig) {
			return errors.New("pkixutil: ECDSA signature invalid")
		}
		return nil
	default:
		return fmt.Errorf("pkixutil: unsupported public key type %T", pub)
	}
}

// subjectPublicKeyInfo is the minimal structure needed to extract the raw
// public key BIT STRING from a certificate for key hashing.
type subjectPublicKeyInfo struct {
	Algorithm AlgorithmIdentifier
	PublicKey asn1.BitString
}

// IssuerNameHash returns hash(issuer.RawSubject) as used in the OCSP
// CertID issuerNameHash field.
func IssuerNameHash(issuer *x509.Certificate, h crypto.Hash) ([]byte, error) {
	return hashBytes(issuer.RawSubject, h)
}

// IssuerKeyHash returns the hash of the issuer's SubjectPublicKeyInfo
// public-key BIT STRING contents (excluding tag, length, and unused-bits
// byte), as required by RFC 6960 for the CertID issuerKeyHash field.
func IssuerKeyHash(issuer *x509.Certificate, h crypto.Hash) ([]byte, error) {
	var spki subjectPublicKeyInfo
	if _, err := asn1.Unmarshal(issuer.RawSubjectPublicKeyInfo, &spki); err != nil {
		return nil, fmt.Errorf("pkixutil: parse SubjectPublicKeyInfo: %w", err)
	}
	return hashBytes(spki.PublicKey.RightAlign(), h)
}

func hashBytes(b []byte, h crypto.Hash) ([]byte, error) {
	switch h {
	case crypto.SHA1:
		sum := sha1.Sum(b)
		return sum[:], nil
	case crypto.SHA256:
		sum := sha256.Sum256(b)
		return sum[:], nil
	default:
		if !h.Available() {
			return nil, fmt.Errorf("pkixutil: hash %v unavailable", h)
		}
		hh := h.New()
		hh.Write(b)
		return hh.Sum(nil), nil
	}
}

// ReasonCode is an RFC 5280 CRLReason, shared by CRL entries and OCSP
// revokedInfo.
type ReasonCode int

// Revocation reason codes (RFC 5280 §5.3.1). Value 7 is unused by the RFC.
const (
	ReasonUnspecified          ReasonCode = 0
	ReasonKeyCompromise        ReasonCode = 1
	ReasonCACompromise         ReasonCode = 2
	ReasonAffiliationChanged   ReasonCode = 3
	ReasonSuperseded           ReasonCode = 4
	ReasonCessationOfOperation ReasonCode = 5
	ReasonCertificateHold      ReasonCode = 6
	ReasonRemoveFromCRL        ReasonCode = 8
	ReasonPrivilegeWithdrawn   ReasonCode = 9
	ReasonAACompromise         ReasonCode = 10

	// ReasonAbsent is the sentinel used by this module when a revocation
	// carries no reason code at all — the common case in the wild
	// (§5.4 of the paper: 99.99% of CRL/OCSP reason discrepancies are a
	// reason present on one side and absent on the other).
	ReasonAbsent ReasonCode = -1
)

var reasonNames = map[ReasonCode]string{
	ReasonUnspecified:          "unspecified",
	ReasonKeyCompromise:        "keyCompromise",
	ReasonCACompromise:         "cACompromise",
	ReasonAffiliationChanged:   "affiliationChanged",
	ReasonSuperseded:           "superseded",
	ReasonCessationOfOperation: "cessationOfOperation",
	ReasonCertificateHold:      "certificateHold",
	ReasonRemoveFromCRL:        "removeFromCRL",
	ReasonPrivilegeWithdrawn:   "privilegeWithdrawn",
	ReasonAACompromise:         "aACompromise",
	ReasonAbsent:               "absent",
}

func (r ReasonCode) String() string {
	if s, ok := reasonNames[r]; ok {
		return s
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Valid reports whether r is a reason code defined by RFC 5280 (or the
// ReasonAbsent sentinel).
func (r ReasonCode) Valid() bool {
	_, ok := reasonNames[r]
	return ok
}

// MarshalReasonCodeExtension encodes a CRLReason as the crl-entry
// reasonCode extension value (an ENUMERATED).
func MarshalReasonCodeExtension(r ReasonCode) ([]byte, error) {
	if r == ReasonAbsent {
		return nil, errors.New("pkixutil: cannot encode absent reason code")
	}
	return asn1.Marshal(asn1.Enumerated(r))
}

// ParseReasonCodeExtension decodes a reasonCode extension value.
func ParseReasonCodeExtension(der []byte) (ReasonCode, error) {
	var e asn1.Enumerated
	rest, err := asn1.Unmarshal(der, &e)
	if err != nil {
		return ReasonAbsent, fmt.Errorf("pkixutil: parse reasonCode: %w", err)
	}
	if len(rest) != 0 {
		return ReasonAbsent, errors.New("pkixutil: trailing bytes after reasonCode")
	}
	return ReasonCode(e), nil
}
