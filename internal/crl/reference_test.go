package crl_test

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
	"time"

	"github.com/netmeasure/muststaple/internal/crl"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// The reference codec below is the encoding/asn1 reflection codec the DER
// writer and reader replaced: the wire structs, the encoder Create must
// match byte for byte, and the parser whose verdicts and fields Parse must
// match (differential_test.go).

// Wire structures (RFC 5280 §5.1).
type certificateListASN1 struct {
	TBSCertList        asn1.RawValue
	SignatureAlgorithm algorithmIdentifierASN1
	Signature          asn1.BitString
}

type algorithmIdentifierASN1 struct {
	Algorithm  asn1.ObjectIdentifier
	Parameters asn1.RawValue `asn1:"optional"`
}

type tbsCertListASN1 struct {
	Version             int `asn1:"optional,default:0"`
	Signature           algorithmIdentifierASN1
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

// algorithmIdentifier decodes the DER AlgorithmIdentifier pkixutil
// returns into its wire struct.
func algorithmIdentifier(der []byte) (algorithmIdentifierASN1, error) {
	var alg algorithmIdentifierASN1
	_, err := asn1.Unmarshal(der, &alg)
	return alg, err
}

// referenceCreate is Create on encoding/asn1.
func referenceCreate(issuer *x509.Certificate, key crypto.Signer, list *crl.CRL, opts crl.CreateOptions) ([]byte, error) {
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

	entries := make([]crl.Entry, len(list.Entries))
	copy(entries, list.Entries)
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].Serial.Cmp(entries[j].Serial) < 0
	})

	sigAlgDER, err := pkixutil.SignatureAlgorithmForKey(key)
	if err != nil {
		return nil, err
	}
	sigAlg, err := algorithmIdentifier(sigAlgDER)
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
			val, err := marshalReasonCodeExtension(e.Reason)
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
	return referenceSign(rand, key, tbsDER)
}

// referenceSign signs tbsDER and wraps it in a CertificateList.
func referenceSign(rand io.Reader, key crypto.Signer, tbsDER []byte) ([]byte, error) {
	algDER, sig, err := pkixutil.SignTBS(rand, key, tbsDER)
	if err != nil {
		return nil, err
	}
	alg, err := algorithmIdentifier(algDER)
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

// referenceParse is Parse on encoding/asn1.
func referenceParse(der []byte) (*crl.CRL, error) {
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

	out := &crl.CRL{
		RawIssuer:          tbs.Issuer.FullBytes,
		ThisUpdate:         tbs.ThisUpdate,
		NextUpdate:         tbs.NextUpdate,
		Raw:                der,
		RawTBS:             w.TBSCertList.FullBytes,
		SignatureAlgorithm: w.SignatureAlgorithm.Algorithm,
		Signature:          w.Signature.RightAlign(),
	}
	for _, rc := range tbs.RevokedCertificates {
		e := crl.Entry{Serial: rc.Serial, RevokedAt: rc.RevokedAt, Reason: pkixutil.ReasonAbsent}
		for _, ext := range rc.Extensions {
			if ext.ID.Equal(pkixutil.OIDExtensionReasonCode) {
				r, err := parseReasonCodeExtension(ext.Value)
				if err != nil {
					return nil, err
				}
				e.Reason = r
			}
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

// marshalReasonCodeExtension encodes a CRLReason as the crl-entry
// reasonCode extension value (an ENUMERATED).
func marshalReasonCodeExtension(r pkixutil.ReasonCode) ([]byte, error) {
	if r == pkixutil.ReasonAbsent {
		return nil, errors.New("pkixutil: cannot encode absent reason code")
	}
	return asn1.Marshal(asn1.Enumerated(r))
}

// parseReasonCodeExtension decodes a reasonCode extension value.
func parseReasonCodeExtension(der []byte) (pkixutil.ReasonCode, error) {
	var e asn1.Enumerated
	rest, err := asn1.Unmarshal(der, &e)
	if err != nil {
		return pkixutil.ReasonAbsent, fmt.Errorf("pkixutil: parse reasonCode: %w", err)
	}
	if len(rest) != 0 {
		return pkixutil.ReasonAbsent, errors.New("pkixutil: trailing bytes after reasonCode")
	}
	return pkixutil.ReasonCode(e), nil
}
