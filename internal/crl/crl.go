// Package crl is a from-scratch implementation of X.509 Certificate
// Revocation Lists (RFC 5280 §5) on pkixutil's DER writer and reader:
// issuing, signing, parsing, and verifying CertificateLists, with
// per-entry reason codes and the CRL number extension.
//
// The CRL-vs-OCSP consistency study (paper §5.4, Table 1, Figure 10) runs
// on this package and internal/ocsp.
package crl

import (
	"bytes"
	"crypto"
	cryptorand "crypto/rand"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"io"
	"math/big"
	"sort"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// Entry is one revoked certificate in a CRL.
type Entry struct {
	Serial    *big.Int
	RevokedAt time.Time
	// Reason is pkixutil.ReasonAbsent when the entry carries no
	// reasonCode extension (the overwhelmingly common case: the paper
	// cites prior work that the vast majority of revocations include no
	// reason code).
	Reason pkixutil.ReasonCode
}

// CRL is a parsed or to-be-issued certificate revocation list.
type CRL struct {
	// Issuer is the raw DER subject of the issuing CA.
	RawIssuer []byte
	// ThisUpdate/NextUpdate bound the list's validity period; CAs must
	// republish before NextUpdate even when nothing new was revoked.
	ThisUpdate time.Time
	NextUpdate time.Time
	// Number is the monotonically increasing CRL number extension
	// value, or nil if absent.
	Number *big.Int
	// Entries are the revoked certificates: sorted by serial in what
	// Create issues, in wire order in what Parse returns.
	Entries []Entry

	// Raw is the full DER, RawTBS the signed portion; populated by
	// Parse. They, RawIssuer and Signature alias Parse's input.
	Raw    []byte
	RawTBS []byte
	// SignatureAlgorithm and Signature are the outer signature fields.
	SignatureAlgorithm asn1.ObjectIdentifier
	Signature          []byte
}

// CreateOptions configures Create.
type CreateOptions struct {
	// Rand is the signing randomness source; nil means crypto/rand.
	Rand io.Reader
}

// Create issues a signed CRL from the given issuer CA certificate and key.
// Entries need not be sorted; the encoder sorts them by serial for
// deterministic output.
//
//	CertificateList ::= SEQUENCE { tbsCertList TBSCertList,
//	                               signatureAlgorithm AlgorithmIdentifier,
//	                               signatureValue BIT STRING }
func Create(issuer *x509.Certificate, key crypto.Signer, list *CRL, opts CreateOptions) ([]byte, error) {
	if issuer == nil || key == nil || list == nil {
		return nil, errors.New("crl: nil issuer, key, or list")
	}
	if list.ThisUpdate.IsZero() {
		return nil, errors.New("crl: thisUpdate is required")
	}
	rand := opts.Rand
	if rand == nil {
		rand = cryptorand.Reader
	}
	entries := make([]Entry, len(list.Entries))
	copy(entries, list.Entries)
	for _, e := range entries {
		if e.Serial == nil {
			return nil, errors.New("crl: entry has nil serial")
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Serial.Cmp(entries[j].Serial) < 0
	})

	// The inner signature AlgorithmIdentifier must match the outer one.
	sigAlg, err := pkixutil.SignatureAlgorithmForKey(key)
	if err != nil {
		return nil, err
	}
	tbs, err := appendTBSCertList(nil, issuer.RawSubject, sigAlg, list, entries)
	if err != nil {
		return nil, err
	}
	alg, sig, err := pkixutil.SignTBS(rand, key, tbs)
	if err != nil {
		return nil, err
	}
	n := len(tbs) + len(alg) + pkixutil.HeaderLen(1+len(sig)) + 1 + len(sig)
	out := make([]byte, 0, pkixutil.HeaderLen(n)+n)
	out = pkixutil.AppendHeader(out, pkixutil.TagSequence, n)
	out = append(out, tbs...)
	out = append(out, alg...)
	return pkixutil.AppendBitString(out, sig), nil
}

// appendTBSCertList appends the DER TBSCertList of list with the given
// sorted entries. Times are written in UTC with whole seconds, as a
// UTCTime for years 1950–2049 (RFC 5280 §5.1.2.4).
//
//	TBSCertList ::= SEQUENCE { version INTEGER OPTIONAL, -- v2
//	                           signature AlgorithmIdentifier,
//	                           issuer Name,
//	                           thisUpdate Time,
//	                           nextUpdate Time OPTIONAL,
//	                           revokedCertificates SEQUENCE OF SEQUENCE {
//	                               userCertificate INTEGER,
//	                               revocationDate Time,
//	                               crlEntryExtensions Extensions OPTIONAL
//	                           } OPTIONAL,
//	                           crlExtensions [0] EXPLICIT Extensions OPTIONAL }
func appendTBSCertList(b, issuer, sigAlg []byte, list *CRL, entries []Entry) ([]byte, error) {
	b, tbs := pkixutil.Begin(b, pkixutil.TagSequence)
	b = append(b, pkixutil.TagInteger, 1, 1) // v2
	b = append(b, sigAlg...)
	b = append(b, issuer...)
	b, err := pkixutil.AppendTime(b, list.ThisUpdate.UTC().Truncate(time.Second))
	if err != nil {
		return nil, err
	}
	// A nextUpdate that truncates to the zero time is omitted.
	if next := list.NextUpdate.UTC().Truncate(time.Second); !next.IsZero() {
		if b, err = pkixutil.AppendTime(b, next); err != nil {
			return nil, err
		}
	}
	if len(entries) > 0 {
		var revoked int
		b, revoked = pkixutil.Begin(b, pkixutil.TagSequence)
		for i := range entries {
			if b, err = appendEntry(b, &entries[i]); err != nil {
				return nil, err
			}
		}
		b = pkixutil.End(b, revoked)
	}
	if list.Number != nil {
		var exts int
		b, exts = pkixutil.Begin(b, pkixutil.TagContextExplicit|0)
		b = appendExtensions(b, pkixutil.OIDExtensionCRLNumberDER, pkixutil.AppendInteger(nil, list.Number))
		b = pkixutil.End(b, exts)
	}
	return pkixutil.End(b, tbs), nil
}

// appendExtensions appends an Extensions list holding one non-critical
// extension with the given DER extnID and extnValue contents.
func appendExtensions(b, oid, value []byte) []byte {
	n := len(oid) + pkixutil.HeaderLen(len(value)) + len(value)
	b = pkixutil.AppendHeader(b, pkixutil.TagSequence, pkixutil.HeaderLen(n)+n)
	b = pkixutil.AppendHeader(b, pkixutil.TagSequence, n)
	b = append(b, oid...)
	return pkixutil.AppendElement(b, pkixutil.TagOctetString, value)
}

// appendEntry appends one revokedCertificates entry. Its only extension
// is the reasonCode, an ENUMERATED, when the entry has a reason.
func appendEntry(b []byte, e *Entry) ([]byte, error) {
	b, seq := pkixutil.Begin(b, pkixutil.TagSequence)
	b = pkixutil.AppendInteger(b, e.Serial)
	b, err := pkixutil.AppendTime(b, e.RevokedAt.UTC().Truncate(time.Second))
	if err != nil {
		return nil, err
	}
	if e.Reason != pkixutil.ReasonAbsent {
		var value [10]byte // an int64 ENUMERATED
		b = appendExtensions(b, pkixutil.OIDExtensionReasonCodeDER, pkixutil.AppendEnumerated(value[:0], int64(e.Reason)))
	}
	return pkixutil.End(b, seq), nil
}

// Parse decodes a DER CRL. Signature verification is separate
// (CheckSignatureFrom) so callers can classify parse and signature failures
// independently. Parse accepts what encoding/asn1 accepted on the old wire
// structs, quirks included (DESIGN.md §17).
func Parse(der []byte) (*CRL, error) {
	in := pkixutil.Input(der)
	var outer, tbs, sig pkixutil.Element
	var sigAlg pkixutil.Input
	if !in.ReadElement(&outer, pkixutil.TagSequence) ||
		!outer.Content.ReadElement(&tbs, pkixutil.AnyTag) ||
		!outer.Content.ReadAlgorithmIdentifier(&sigAlg) ||
		!outer.Content.ReadElement(&sig, pkixutil.TagBitString) {
		return nil, errors.New("crl: parse certificateList: malformed DER")
	}
	bits, ok := sig.Content.BitString()
	if !ok {
		return nil, errors.New("crl: parse certificateList: malformed signature")
	}
	if len(in) != 0 {
		return nil, errors.New("crl: trailing data")
	}
	out := &CRL{Raw: der, RawTBS: tbs.Full, Signature: bits.RightAlign()}
	out.SignatureAlgorithm, _ = sigAlg.ObjectIdentifier() // ReadAlgorithmIdentifier checked it
	if err := out.parseTBSCertList(tbs.Full); err != nil {
		return nil, err
	}
	return out, nil
}

// parseTBSCertList fills c from the DER TBSCertList (see appendTBSCertList).
func (c *CRL) parseTBSCertList(der pkixutil.Input) error {
	var seq, version, issuer, this, next, revoked, exts pkixutil.Element
	var sigAlg pkixutil.Input
	var hasVersion, hasNext, hasRevoked, hasExts bool
	if !der.ReadElement(&seq, pkixutil.TagSequence) ||
		!seq.Content.ReadOptionalElement(&version, &hasVersion, pkixutil.TagInteger) ||
		!seq.Content.ReadAlgorithmIdentifier(&sigAlg) ||
		!seq.Content.ReadElement(&issuer, pkixutil.AnyTag) ||
		!seq.Content.ReadElement(&this, pkixutil.AnyTime) ||
		!seq.Content.ReadOptionalElement(&next, &hasNext, pkixutil.AnyTime) ||
		!seq.Content.ReadOptionalElement(&revoked, &hasRevoked, pkixutil.TagSequence) ||
		!seq.Content.ReadOptionalExplicit(&exts, &hasExts, 0, pkixutil.TagSequence) {
		return errors.New("crl: parse tbsCertList: malformed DER")
	}
	if hasVersion {
		if _, ok := version.Content.Int(); !ok {
			return errors.New("crl: parse tbsCertList: malformed version")
		}
	}
	c.RawIssuer = issuer.Full
	var ok bool
	if c.ThisUpdate, ok = this.Time(); !ok {
		return errors.New("crl: parse tbsCertList: malformed thisUpdate")
	}
	if hasNext {
		if c.NextUpdate, ok = next.Time(); !ok {
			return errors.New("crl: parse tbsCertList: malformed nextUpdate")
		}
	}
	for items := revoked.Content; hasRevoked && len(items) > 0; {
		e, err := readEntry(&items)
		if err != nil {
			return err
		}
		c.Entries = append(c.Entries, e)
	}
	if hasExts {
		decodeNumber := func(value pkixutil.Input) bool {
			// What follows the INTEGER is ignored.
			var n pkixutil.Element
			c.Number = new(big.Int)
			return value.ReadElement(&n, pkixutil.TagInteger) && n.Content.Integer(c.Number)
		}
		if !readExtensions(exts.Content, oidCRLNumber, decodeNumber) {
			return errors.New("crl: parse crlExtensions: malformed DER")
		}
	}
	return nil
}

// readEntry reads one revokedCertificates entry (see appendEntry).
func readEntry(s *pkixutil.Input) (Entry, error) {
	var seq, serial, at, exts pkixutil.Element
	var hasExts bool
	if !s.ReadElement(&seq, pkixutil.TagSequence) ||
		!seq.Content.ReadElement(&serial, pkixutil.TagInteger) ||
		!seq.Content.ReadElement(&at, pkixutil.AnyTime) ||
		!seq.Content.ReadOptionalElement(&exts, &hasExts, pkixutil.TagSequence) {
		return Entry{}, errors.New("crl: parse revokedCertificate: malformed DER")
	}
	e := Entry{Serial: new(big.Int), Reason: pkixutil.ReasonAbsent}
	var ok bool
	if e.RevokedAt, ok = at.Time(); !ok || !serial.Content.Integer(e.Serial) {
		return Entry{}, errors.New("crl: parse revokedCertificate: malformed serial or revocationDate")
	}
	decodeReason := func(value pkixutil.Input) bool {
		// The value is one ENUMERATED and nothing more.
		var r pkixutil.Element
		if !value.ReadElement(&r, pkixutil.TagEnumerated) || len(value) != 0 {
			return false
		}
		v, ok := r.Content.Enum()
		e.Reason = pkixutil.ReasonCode(v)
		return ok
	}
	if hasExts && !readExtensions(exts.Content, oidReasonCode, decodeReason) {
		return Entry{}, errors.New("crl: parse crlEntryExtensions: malformed DER")
	}
	return e, nil
}

// readExtensions reads exts, the contents of an Extensions SEQUENCE OF,
// and calls decode on the value of each extension whose extnID has the
// contents oid. It reports false if an extension or a decode fails.
func readExtensions(exts pkixutil.Input, oid []byte, decode func(value pkixutil.Input) bool) bool {
	for len(exts) > 0 {
		var id, value pkixutil.Input
		if !exts.ReadExtension(&id, &value) || bytes.Equal(id, oid) && !decode(value) {
			return false
		}
	}
	return true
}

// The OBJECT IDENTIFIER contents Parse compares against.
var (
	oidCRLNumber  = pkixutil.OIDExtensionCRLNumberDER[2:]
	oidReasonCode = pkixutil.OIDExtensionReasonCodeDER[2:]
)

// CheckSignatureFrom verifies the CRL signature against the issuer.
func (c *CRL) CheckSignatureFrom(issuer *x509.Certificate) error {
	return pkixutil.VerifyTBS(issuer.PublicKey, c.SignatureAlgorithm, c.RawTBS, c.Signature)
}
