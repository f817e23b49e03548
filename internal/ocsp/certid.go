package ocsp

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"errors"
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

// readCertID reads a CertID SEQUENCE, copying its hashes out of the
// input:
//
//	CertID ::= SEQUENCE { hashAlgorithm AlgorithmIdentifier,
//	                      issuerNameHash OCTET STRING,
//	                      issuerKeyHash OCTET STRING,
//	                      serialNumber INTEGER }
func readCertID(s *pkixutil.Input) (CertID, error) {
	var seq, name, key, serial pkixutil.Element
	var alg pkixutil.Input
	if !s.ReadElement(&seq, pkixutil.TagSequence) ||
		!seq.Content.ReadAlgorithmIdentifier(&alg) ||
		!seq.Content.ReadElement(&name, pkixutil.TagOctetString) ||
		!seq.Content.ReadElement(&key, pkixutil.TagOctetString) ||
		!seq.Content.ReadElement(&serial, pkixutil.TagInteger) {
		return CertID{}, errors.New("ocsp: malformed CertID")
	}
	id := CertID{Serial: new(big.Int)}
	if !serial.Content.Integer(id.Serial) {
		return CertID{}, errors.New("ocsp: CertID has a malformed serial number")
	}
	h, ok := pkixutil.HashFromOIDContents(alg)
	if !ok {
		oid, _ := alg.ObjectIdentifier()
		return CertID{}, fmt.Errorf("ocsp: CertID hash: unknown hash OID %v", oid)
	}
	id.HashAlgorithm = h
	id.IssuerNameHash = bytes.Clone(name.Content)
	id.IssuerKeyHash = bytes.Clone(key.Content)
	return id, nil
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

// readExtensions checks exts, the contents of an Extensions SEQUENCE OF,
// and returns the nonce its first nonce extension carries, nil if none.
// The nonce is the contents of the OCTET STRING the value should hold,
// or the whole value when it holds none (some clients send it bare),
// copied out of the input either way.
func readExtensions(exts pkixutil.Input) ([]byte, bool) {
	var nonce []byte
	found := false
	for len(exts) > 0 {
		var id, value pkixutil.Input
		if !exts.ReadExtension(&id, &value) {
			return nil, false
		}
		if !found && bytes.Equal(id, oidNonceContents) {
			found = true
			var octets pkixutil.Element
			if value.ReadElement(&octets, pkixutil.TagOctetString) {
				nonce = bytes.Clone(octets.Content)
			} else {
				nonce = bytes.Clone(value)
			}
		}
	}
	return nonce, true
}

// validExtensions reports whether exts is a well-formed Extensions
// SEQUENCE OF contents.
func validExtensions(exts pkixutil.Input) bool {
	_, ok := readExtensions(exts)
	return ok
}

// readVersion reads the optional explicit [0] version INTEGER that opens
// TBSRequest and ResponseData. Its value is not checked, only that it
// fits an int.
func readVersion(s *pkixutil.Input) bool {
	var v pkixutil.Element
	var present bool
	if !s.ReadOptionalExplicit(&v, &present, 0, pkixutil.TagInteger) {
		return false
	}
	if present {
		_, ok := v.Content.Int()
		return ok
	}
	return true
}

// The OBJECT IDENTIFIER contents the parsers compare against.
var (
	oidBasicContents = pkixutil.OIDOCSPBasicDER[2:]
	oidNonceContents = pkixutil.OIDOCSPNonceDER[2:]
)
