// Package crl is a from-scratch implementation of X.509 Certificate
// Revocation Lists (RFC 5280 §5) on top of encoding/asn1: issuing, signing,
// parsing, and verifying CertificateLists, with per-entry reason codes, the
// CRL number extension, and expired-entry pruning (CAs may drop revoked
// certificates from CRLs once they expire — paper §2.2, footnote 3).
//
// The CRL-vs-OCSP consistency study (paper §5.4, Table 1, Figure 10) runs
// on this package and internal/ocsp.
package crl

import (
	"crypto"
	cryptorand "crypto/rand"
	"crypto/x509"
	"encoding/asn1"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync/atomic"
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
	// Entries are the revoked certificates, sorted by serial.
	Entries []Entry

	// Raw is the full DER, RawTBS the signed portion; populated by
	// Parse and Create.
	Raw    []byte
	RawTBS []byte
	// SignatureAlgorithm and Signature are the outer signature fields.
	SignatureAlgorithm asn1.ObjectIdentifier
	Signature          []byte

	// sortedState caches whether Entries is sorted by serial, so Find
	// decides between binary and linear search once instead of paying a
	// full linear fallback on every miss. Parse and Create record it;
	// for hand-built lists Find verifies lazily on first use. Entries
	// must not be reordered after the first Find call.
	sortedState int32
}

// sortedState values.
const (
	sortednessUnknown int32 = iota
	sortednessSorted
	sortednessUnsorted
)

// Wire structures (RFC 5280 §5.1).
type certificateListASN1 struct {
	TBSCertList        asn1.RawValue
	SignatureAlgorithm pkixutil.AlgorithmIdentifier
	Signature          asn1.BitString
}

type tbsCertListASN1 struct {
	Version             int `asn1:"optional,default:0"`
	Signature           pkixutil.AlgorithmIdentifier
	Issuer              asn1.RawValue
	ThisUpdate          time.Time
	NextUpdate          time.Time         `asn1:"optional"`
	RevokedCertificates []revokedCertASN1 `asn1:"optional"`
	Extensions          []extensionASN1   `asn1:"explicit,tag:0,optional"`
}

type revokedCertASN1 struct {
	Serial     *big.Int
	RevokedAt  time.Time
	Extensions []extensionASN1 `asn1:"optional"`
}

type extensionASN1 struct {
	ID       asn1.ObjectIdentifier
	Critical bool `asn1:"optional"`
	Value    []byte
}

// CreateOptions configures Create.
type CreateOptions struct {
	// Rand is the signing randomness source; nil means crypto/rand.
	Rand io.Reader
}

// Create issues a signed CRL from the given issuer CA certificate and key.
// Entries need not be sorted; the encoder sorts them by serial for
// deterministic output.
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
	sorted := int32(sortednessSorted)
	for i := 1; i < len(entries); i++ {
		if entries[i-1].Serial.Cmp(entries[i].Serial) > 0 {
			sorted = sortednessUnsorted
			break
		}
	}
	atomic.StoreInt32(&list.sortedState, sorted)
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Serial.Cmp(entries[j].Serial) < 0
	})

	// The inner signature AlgorithmIdentifier must match the outer one.
	sigAlg, err := pkixutil.SignatureAlgorithmForKey(key)
	if err != nil {
		return nil, err
	}

	tbs := tbsCertListASN1{
		Version:    1, // v2
		Signature:  sigAlg,
		Issuer:     asn1.RawValue{FullBytes: issuer.RawSubject},
		ThisUpdate: list.ThisUpdate.UTC().Truncate(time.Second),
	}
	if !list.NextUpdate.IsZero() {
		tbs.NextUpdate = list.NextUpdate.UTC().Truncate(time.Second)
	}
	for _, e := range entries {
		w := revokedCertASN1{Serial: e.Serial, RevokedAt: e.RevokedAt.UTC().Truncate(time.Second)}
		if e.Reason != pkixutil.ReasonAbsent {
			val, err := pkixutil.MarshalReasonCodeExtension(e.Reason)
			if err != nil {
				return nil, err
			}
			w.Extensions = []extensionASN1{{ID: pkixutil.OIDExtensionReasonCode, Value: val}}
		}
		tbs.RevokedCertificates = append(tbs.RevokedCertificates, w)
	}
	if list.Number != nil {
		numDER, err := asn1.Marshal(list.Number)
		if err != nil {
			return nil, fmt.Errorf("crl: marshal CRL number: %w", err)
		}
		tbs.Extensions = append(tbs.Extensions, extensionASN1{ID: pkixutil.OIDExtensionCRLNumber, Value: numDER})
	}

	tbsDER, err := asn1.Marshal(tbs)
	if err != nil {
		return nil, fmt.Errorf("crl: marshal tbsCertList: %w", err)
	}
	alg, sig, err := pkixutil.SignTBS(rand, key, tbsDER)
	if err != nil {
		return nil, err
	}
	der, err := asn1.Marshal(certificateListASN1{
		TBSCertList:        asn1.RawValue{FullBytes: tbsDER},
		SignatureAlgorithm: alg,
		Signature:          asn1.BitString{Bytes: sig, BitLength: len(sig) * 8},
	})
	if err != nil {
		return nil, fmt.Errorf("crl: marshal certificateList: %w", err)
	}
	return der, nil
}

// Parse decodes a DER CRL. Signature verification is separate
// (CheckSignatureFrom) so callers can classify parse and signature failures
// independently.
func Parse(der []byte) (*CRL, error) {
	var w certificateListASN1
	rest, err := asn1.Unmarshal(der, &w)
	if err != nil {
		return nil, fmt.Errorf("crl: parse certificateList: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("crl: trailing data")
	}
	var tbs tbsCertListASN1
	rest, err = asn1.Unmarshal(w.TBSCertList.FullBytes, &tbs)
	if err != nil {
		return nil, fmt.Errorf("crl: parse tbsCertList: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("crl: trailing data after tbsCertList")
	}

	out := &CRL{
		RawIssuer:          tbs.Issuer.FullBytes,
		ThisUpdate:         tbs.ThisUpdate,
		NextUpdate:         tbs.NextUpdate,
		Raw:                der,
		RawTBS:             w.TBSCertList.FullBytes,
		SignatureAlgorithm: w.SignatureAlgorithm.Algorithm,
		Signature:          w.Signature.RightAlign(),
	}
	out.sortedState = sortednessSorted //lint:allow atomicsafe not yet published; Parse builds the list single-threaded before returning it
	for i, rc := range tbs.RevokedCertificates {
		e := Entry{Serial: rc.Serial, RevokedAt: rc.RevokedAt, Reason: pkixutil.ReasonAbsent}
		for _, ext := range rc.Extensions {
			if ext.ID.Equal(pkixutil.OIDExtensionReasonCode) {
				r, err := pkixutil.ParseReasonCodeExtension(ext.Value)
				if err != nil {
					return nil, err
				}
				e.Reason = r
			}
		}
		// Record order violations as we go: issuers are not obliged to
		// emit sorted entries, and Find must not assume they do.
		if i > 0 && out.Entries[i-1].Serial.Cmp(rc.Serial) > 0 {
			out.sortedState = sortednessUnsorted //lint:allow atomicsafe not yet published; Parse builds the list single-threaded before returning it
		}
		out.Entries = append(out.Entries, e)
	}
	for _, ext := range tbs.Extensions {
		if ext.ID.Equal(pkixutil.OIDExtensionCRLNumber) {
			n := new(big.Int)
			if _, err := asn1.Unmarshal(ext.Value, &n); err != nil {
				return nil, fmt.Errorf("crl: parse CRL number: %w", err)
			}
			out.Number = n
		}
	}
	return out, nil
}

// CheckSignatureFrom verifies the CRL signature against the issuer.
func (c *CRL) CheckSignatureFrom(issuer *x509.Certificate) error {
	return pkixutil.VerifyTBS(issuer.PublicKey, c.SignatureAlgorithm, c.RawTBS, c.Signature)
}

// Find returns the entry for serial, or nil if the serial is not revoked
// according to this CRL. Sorted lists (everything Create emits, and most
// parsed CRLs) get a binary search; only lists whose entries genuinely
// violate serial order pay the linear scan — previously every miss did.
func (c *CRL) Find(serial *big.Int) *Entry {
	if c.sortedness() == sortednessSorted {
		n := len(c.Entries)
		i := sort.Search(n, func(i int) bool { return c.Entries[i].Serial.Cmp(serial) >= 0 })
		if i < n && c.Entries[i].Serial.Cmp(serial) == 0 {
			return &c.Entries[i]
		}
		return nil
	}
	for j := range c.Entries {
		if c.Entries[j].Serial.Cmp(serial) == 0 {
			return &c.Entries[j]
		}
	}
	return nil
}

// sortedness returns the cached sort state, verifying the invariant once
// for lists built by hand rather than by Parse or Create.
func (c *CRL) sortedness() int32 {
	if s := atomic.LoadInt32(&c.sortedState); s != sortednessUnknown {
		return s
	}
	s := sortednessSorted
	for i := 1; i < len(c.Entries); i++ {
		if c.Entries[i-1].Serial.Cmp(c.Entries[i].Serial) > 0 {
			s = sortednessUnsorted
			break
		}
	}
	atomic.StoreInt32(&c.sortedState, s)
	return s
}

// ValidAt reports whether the CRL is within its validity window at t. A
// missing NextUpdate is treated as never expiring.
func (c *CRL) ValidAt(t time.Time) bool {
	if t.Before(c.ThisUpdate) {
		return false
	}
	return c.NextUpdate.IsZero() || !t.After(c.NextUpdate)
}
