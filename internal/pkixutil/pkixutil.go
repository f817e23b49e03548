// Package pkixutil provides the low-level PKIX plumbing shared by the
// from-scratch OCSP (RFC 6960) and CRL (RFC 5280) codecs: object
// identifiers, AlgorithmIdentifiers, TBS signing and verification,
// revocation reason codes, and the issuer name/key hashing used by OCSP
// CertIDs.
//
// Both codecs are built on this package's append-style DER writer
// (der.go) and its DER reader (reader.go), which write and read what
// encoding/asn1 would without reflection. Only the one-time setup of
// precomputed object identifiers still uses encoding/asn1. Everything is
// standard library only; no golang.org/x/crypto dependency is used
// anywhere in this module.
package pkixutil

import (
	"bytes"
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

// hashAlgorithms holds each hash a CertID may name: its OBJECT
// IDENTIFIER contents, which the reader compares against, and its DER
// AlgorithmIdentifier, which the writer emits. RFC 6960 encodes the SHA-1
// identifier with an explicit NULL parameter, matching OpenSSL; we do the
// same for every hash, for compatibility.
var hashAlgorithms = []struct {
	h     crypto.Hash
	oid   []byte
	algID []byte
}{
	{crypto.SHA1, mustDER(OIDSHA1)[2:], algorithmIdentifier(OIDSHA1, true)},
	{crypto.SHA256, mustDER(OIDSHA256)[2:], algorithmIdentifier(OIDSHA256, true)},
	{crypto.SHA384, mustDER(OIDSHA384)[2:], algorithmIdentifier(OIDSHA384, true)},
	{crypto.SHA512, mustDER(OIDSHA512)[2:], algorithmIdentifier(OIDSHA512, true)},
}

// algorithmIdentifier returns the DER AlgorithmIdentifier of oid, with an
// explicit NULL parameter if withNULL.
func algorithmIdentifier(oid asn1.ObjectIdentifier, withNULL bool) []byte {
	content := mustDER(oid)
	if withNULL {
		content = append(content, 0x05, 0x00)
	}
	return AppendElement(nil, TagSequence, content)
}

// HashAlgorithmIdentifierDER returns the DER AlgorithmIdentifier for a
// hash as used inside OCSP CertIDs. The slice is shared: do not modify it.
func HashAlgorithmIdentifierDER(h crypto.Hash) ([]byte, error) {
	for _, e := range hashAlgorithms {
		if e.h == h {
			return e.algID, nil
		}
	}
	return nil, fmt.Errorf("pkixutil: unsupported hash %v", h)
}

// HashFromOIDContents returns the hash named by the contents octets of an
// OBJECT IDENTIFIER the reader returned.
//
//lint:allocfree
func HashFromOIDContents(oid Input) (crypto.Hash, bool) {
	for _, e := range hashAlgorithms {
		if bytes.Equal(oid, e.oid) {
			return e.h, true
		}
	}
	return 0, false
}

// signatureAlgorithm describes a signature scheme VerifyTBS accepts.
type signatureAlgorithm struct {
	OID   asn1.ObjectIdentifier
	Hash  crypto.Hash
	IsRSA bool
}

var signatureAlgorithms = []signatureAlgorithm{
	{OIDSignatureSHA256WithRSA, crypto.SHA256, true},
	{OIDSignatureSHA384WithRSA, crypto.SHA384, true},
	{OIDSignatureSHA512WithRSA, crypto.SHA512, true},
	{OIDSignatureSHA1WithRSA, crypto.SHA1, true},
	{OIDSignatureECDSAWithSHA256, crypto.SHA256, false},
	{OIDSignatureECDSAWithSHA384, crypto.SHA384, false},
	{OIDSignatureECDSAWithSHA512, crypto.SHA512, false},
	{OIDSignatureECDSAWithSHA1, crypto.SHA1, false},
}

// signatureAlgorithmByOID looks up a supported signature algorithm.
func signatureAlgorithmByOID(oid asn1.ObjectIdentifier) (signatureAlgorithm, error) {
	for _, alg := range signatureAlgorithms {
		if alg.OID.Equal(oid) {
			return alg, nil
		}
	}
	return signatureAlgorithm{}, fmt.Errorf("pkixutil: unsupported signature algorithm %v", oid)
}

// signScheme is a signature scheme SignTBS signs with: SHA-256 with the
// signer's key family, and its AlgorithmIdentifier as precomputed DER.
type signScheme struct {
	family string
	der    []byte
}

var (
	schemeRSA   = &signScheme{"RSA", algorithmIdentifier(OIDSignatureSHA256WithRSA, true)}
	schemeECDSA = &signScheme{"ECDSA", algorithmIdentifier(OIDSignatureECDSAWithSHA256, false)}
)

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

// SignatureAlgorithmForKey returns the DER AlgorithmIdentifier SignTBS
// will use for the given signer's key family, without signing anything.
// CRL encoding needs this because the inner tbsCertList carries a copy of
// the signature algorithm that must be fixed before signing. The slice is
// shared: do not modify it.
func SignatureAlgorithmForKey(signer crypto.Signer) ([]byte, error) {
	s, err := schemeForKey(signer)
	if err != nil {
		return nil, err
	}
	return s.der, nil
}

// SignTBS signs the DER encoding of a to-be-signed structure with the given
// signer, choosing SHA-256 with the signer's key family (RSA PKCS#1 v1.5 or
// ECDSA). It returns the DER AlgorithmIdentifier to embed alongside the
// signature, which is shared: do not modify it.
func SignTBS(rand io.Reader, signer crypto.Signer, tbs []byte) ([]byte, []byte, error) {
	s, err := schemeForKey(signer)
	if err != nil {
		return nil, nil, err
	}
	digest := sha256.Sum256(tbs)
	sig, err := signer.Sign(rand, digest[:], crypto.SHA256)
	if err != nil {
		return nil, nil, fmt.Errorf("pkixutil: %s sign: %w", s.family, err)
	}
	return s.der, sig, nil
}

// VerifyTBS verifies a signature over a TBS blob produced by SignTBS or any
// other RFC-conformant signer using one of the supported algorithms.
func VerifyTBS(pub crypto.PublicKey, algOID asn1.ObjectIdentifier, tbs, sig []byte) error {
	alg, err := signatureAlgorithmByOID(algOID)
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

// IssuerNameHash returns hash(issuer.RawSubject) as used in the OCSP
// CertID issuerNameHash field.
func IssuerNameHash(issuer *x509.Certificate, h crypto.Hash) ([]byte, error) {
	return hashBytes(issuer.RawSubject, h)
}

// IssuerKeyHash returns the hash of the issuer's SubjectPublicKeyInfo
// public-key BIT STRING contents (excluding tag, length, and unused-bits
// byte), as required by RFC 6960 for the CertID issuerKeyHash field.
// Anything after the SubjectPublicKeyInfo is ignored, as encoding/asn1
// ignores it.
func IssuerKeyHash(issuer *x509.Certificate, h crypto.Hash) ([]byte, error) {
	in := Input(issuer.RawSubjectPublicKeyInfo)
	var spki, key Element
	var alg Input
	if !in.ReadElement(&spki, TagSequence) ||
		!spki.Content.ReadAlgorithmIdentifier(&alg) ||
		!spki.Content.ReadElement(&key, TagBitString) {
		return nil, errors.New("pkixutil: parse SubjectPublicKeyInfo: malformed DER")
	}
	bits, ok := key.Content.BitString()
	if !ok {
		return nil, errors.New("pkixutil: parse SubjectPublicKeyInfo: invalid BIT STRING")
	}
	return hashBytes(bits.RightAlign(), h)
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
