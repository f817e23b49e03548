package ocsp

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"encoding/asn1"
	"fmt"
	"math/big"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// CertID identifies a certificate in OCSP requests and responses: the
// issuer's name and key hashes plus the certificate's serial number
// (RFC 6960 §4.1.1).
type CertID struct {
	// HashAlgorithm is the hash used for both issuer hashes. RFC 6960
	// responders universally support SHA-1 here; SHA-256 is also
	// accepted by this package.
	HashAlgorithm  crypto.Hash
	IssuerNameHash []byte
	IssuerKeyHash  []byte
	Serial         *big.Int
}

// certIDASN1 is the wire form of CertID.
type certIDASN1 struct {
	HashAlgorithm  pkixutil.AlgorithmIdentifier
	IssuerNameHash []byte
	IssuerKeyHash  []byte
	Serial         *big.Int
}

// NewCertID computes the CertID for a certificate issued by issuer, using
// hash h (crypto.SHA1 is the interoperable default).
func NewCertID(cert, issuer *x509.Certificate, h crypto.Hash) (CertID, error) {
	if cert == nil || issuer == nil {
		return CertID{}, fmt.Errorf("ocsp: nil certificate")
	}
	return NewCertIDForSerial(cert.SerialNumber, issuer, h)
}

// NewCertIDForSerial computes a CertID for a bare serial number — the shape
// of lookup the paper's CRL-vs-OCSP consistency study performs, where only
// (issuer, serial) pairs are known from CRL entries.
func NewCertIDForSerial(serial *big.Int, issuer *x509.Certificate, h crypto.Hash) (CertID, error) {
	if serial == nil {
		return CertID{}, fmt.Errorf("ocsp: nil serial number")
	}
	nameHash, err := pkixutil.IssuerNameHash(issuer, h)
	if err != nil {
		return CertID{}, err
	}
	keyHash, err := pkixutil.IssuerKeyHash(issuer, h)
	if err != nil {
		return CertID{}, err
	}
	return CertID{
		HashAlgorithm:  h,
		IssuerNameHash: nameHash,
		IssuerKeyHash:  keyHash,
		Serial:         new(big.Int).Set(serial),
	}, nil
}

// Equal reports whether two CertIDs identify the same certificate.
func (c CertID) Equal(o CertID) bool {
	return c.HashAlgorithm == o.HashAlgorithm &&
		bytes.Equal(c.IssuerNameHash, o.IssuerNameHash) &&
		bytes.Equal(c.IssuerKeyHash, o.IssuerKeyHash) &&
		c.Serial != nil && o.Serial != nil &&
		c.Serial.Cmp(o.Serial) == 0
}

// SameIssuer reports whether two CertIDs share issuer hashes (ignoring the
// serial), used to detect serial-number-mismatch responses where the
// responder answered about a different certificate from the same issuer.
func (c CertID) SameIssuer(o CertID) bool {
	return c.HashAlgorithm == o.HashAlgorithm &&
		bytes.Equal(c.IssuerNameHash, o.IssuerNameHash) &&
		bytes.Equal(c.IssuerKeyHash, o.IssuerKeyHash)
}

// appendCertID appends the DER CertID.
func appendCertID(b []byte, id *CertID) ([]byte, error) {
	alg, err := pkixutil.HashAlgorithmIdentifierDER(id.HashAlgorithm)
	if err != nil {
		return b, err
	}
	if id.Serial == nil {
		return b, fmt.Errorf("ocsp: CertID has nil serial")
	}
	b, seq := pkixutil.Begin(b, pkixutil.TagSequence)
	b = append(b, alg...)
	b = pkixutil.AppendElement(b, pkixutil.TagOctetString, id.IssuerNameHash)
	b = pkixutil.AppendElement(b, pkixutil.TagOctetString, id.IssuerKeyHash)
	b = pkixutil.AppendInteger(b, id.Serial)
	return pkixutil.End(b, seq), nil
}

func certIDFromASN1(w certIDASN1) (CertID, error) {
	h, err := pkixutil.HashFromOID(w.HashAlgorithm.Algorithm)
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

// extensionASN1 mirrors pkix.Extension without importing crypto/x509/pkix
// into the wire structures.
type extensionASN1 struct {
	ID       asn1.ObjectIdentifier
	Critical bool `asn1:"optional"`
	Value    []byte
}

// appendNonceExtensions appends an extensions list, explicitly tagged
// [tag], holding only the nonce extension. Its value is the nonce as an
// OCTET STRING, and the non-critical flag is the default and omitted.
func appendNonceExtensions(b []byte, tag byte, nonce []byte) []byte {
	b, exts := pkixutil.Begin(b, pkixutil.TagContextExplicit|tag)
	b, list := pkixutil.Begin(b, pkixutil.TagSequence)
	b, ext := pkixutil.Begin(b, pkixutil.TagSequence)
	b = append(b, pkixutil.OIDOCSPNonceDER...)
	b = pkixutil.AppendHeader(b, pkixutil.TagOctetString, pkixutil.HeaderLen(len(nonce))+len(nonce))
	b = pkixutil.AppendElement(b, pkixutil.TagOctetString, nonce)
	b = pkixutil.End(b, ext)
	b = pkixutil.End(b, list)
	return pkixutil.End(b, exts)
}

func findNonce(exts []extensionASN1) []byte {
	for _, e := range exts {
		if e.ID.Equal(pkixutil.OIDOCSPNonce) {
			return e.Value
		}
	}
	return nil
}
