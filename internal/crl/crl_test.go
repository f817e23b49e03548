package crl_test

import (
	"bytes"
	cryptorand "crypto/rand"
	"crypto/x509"
	"encoding/asn1"
	"math/big"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/crl"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

var (
	thisUpdate = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)
	nextUpdate = thisUpdate.Add(7 * 24 * time.Hour)
)

func newCA(t testing.TB) *pki.CA {
	t.Helper()
	ca, err := pki.NewRootCA(pki.Config{Name: "CRL Test Root", CRLURL: "http://crl.test.example/root.crl"})
	if err != nil {
		t.Fatalf("NewRootCA: %v", err)
	}
	return ca
}

func TestCreateParseRoundTrip(t *testing.T) {
	ca := newCA(t)
	list := &crl.CRL{
		ThisUpdate: thisUpdate,
		NextUpdate: nextUpdate,
		Number:     big.NewInt(42),
		Entries: []crl.Entry{
			{Serial: big.NewInt(333), RevokedAt: thisUpdate.Add(-72 * time.Hour), Reason: pkixutil.ReasonKeyCompromise},
			{Serial: big.NewInt(111), RevokedAt: thisUpdate.Add(-24 * time.Hour), Reason: pkixutil.ReasonAbsent},
			{Serial: big.NewInt(222), RevokedAt: thisUpdate.Add(-48 * time.Hour), Reason: pkixutil.ReasonCessationOfOperation},
		},
	}
	der, err := crl.Create(ca.Certificate, ca.Key, list, crl.CreateOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := crl.Parse(der)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !got.ThisUpdate.Equal(thisUpdate) || !got.NextUpdate.Equal(nextUpdate) {
		t.Errorf("validity window [%v, %v], want [%v, %v]", got.ThisUpdate, got.NextUpdate, thisUpdate, nextUpdate)
	}
	if got.Number == nil || got.Number.Int64() != 42 {
		t.Errorf("CRL number = %v, want 42", got.Number)
	}
	if len(got.Entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(got.Entries))
	}
	// Entries must come back sorted by serial.
	for i, want := range []int64{111, 222, 333} {
		if got.Entries[i].Serial.Int64() != want {
			t.Errorf("entry %d serial = %v, want %d", i, got.Entries[i].Serial, want)
		}
	}
	if got.Entries[0].Reason != pkixutil.ReasonAbsent {
		t.Errorf("entry 111 reason = %v, want absent", got.Entries[0].Reason)
	}
	if got.Entries[2].Reason != pkixutil.ReasonKeyCompromise {
		t.Errorf("entry 333 reason = %v, want keyCompromise", got.Entries[2].Reason)
	}
	if !bytes.Equal(got.RawIssuer, ca.Certificate.RawSubject) {
		t.Error("issuer mismatch")
	}
	if err := got.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Errorf("CheckSignatureFrom: %v", err)
	}
}

func TestParseableByStdlib(t *testing.T) {
	// Our DER must also be parseable by crypto/x509 — a strong
	// cross-check of the encoder against an independent implementation.
	ca := newCA(t)
	list := &crl.CRL{
		ThisUpdate: thisUpdate,
		NextUpdate: nextUpdate,
		Number:     big.NewInt(7),
		Entries: []crl.Entry{
			{Serial: big.NewInt(99), RevokedAt: thisUpdate.Add(-time.Hour), Reason: pkixutil.ReasonSuperseded},
			{Serial: big.NewInt(100), RevokedAt: thisUpdate.Add(-time.Hour), Reason: pkixutil.ReasonAbsent},
		},
	}
	der, err := crl.Create(ca.Certificate, ca.Key, list, crl.CreateOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	rl, err := x509.ParseRevocationList(der)
	if err != nil {
		t.Fatalf("x509.ParseRevocationList rejects our DER: %v", err)
	}
	if err := rl.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Fatalf("stdlib signature check: %v", err)
	}
	if len(rl.RevokedCertificateEntries) != 2 {
		t.Fatalf("stdlib sees %d entries, want 2", len(rl.RevokedCertificateEntries))
	}
	if rl.RevokedCertificateEntries[0].ReasonCode != int(pkixutil.ReasonSuperseded) {
		t.Errorf("stdlib reason = %d, want %d", rl.RevokedCertificateEntries[0].ReasonCode, pkixutil.ReasonSuperseded)
	}
	if rl.Number.Int64() != 7 {
		t.Errorf("stdlib CRL number = %v, want 7", rl.Number)
	}
}

func TestParseStdlibGenerated(t *testing.T) {
	// And the converse: we must parse stdlib-generated CRLs.
	ca := newCA(t)
	tmpl := &x509.RevocationList{
		Number:     big.NewInt(55),
		ThisUpdate: thisUpdate,
		NextUpdate: nextUpdate,
		RevokedCertificateEntries: []x509.RevocationListEntry{
			{SerialNumber: big.NewInt(1234), RevocationTime: thisUpdate.Add(-time.Hour), ReasonCode: int(pkixutil.ReasonKeyCompromise)},
		},
	}
	der, err := x509.CreateRevocationList(nil, tmpl, ca.Certificate, ca.Key)
	if err != nil {
		t.Fatalf("x509.CreateRevocationList: %v", err)
	}
	got, err := crl.Parse(der)
	if err != nil {
		t.Fatalf("Parse of stdlib CRL: %v", err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Serial.Int64() != 1234 {
		t.Fatalf("entries = %+v", got.Entries)
	}
	if got.Entries[0].Reason != pkixutil.ReasonKeyCompromise {
		t.Errorf("reason = %v, want keyCompromise", got.Entries[0].Reason)
	}
	if err := got.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Errorf("CheckSignatureFrom: %v", err)
	}
}

func TestEmptyCRL(t *testing.T) {
	// CAs must publish CRLs regularly even when nothing is revoked.
	ca := newCA(t)
	list := &crl.CRL{ThisUpdate: thisUpdate, NextUpdate: nextUpdate}
	der, err := crl.Create(ca.Certificate, ca.Key, list, crl.CreateOptions{})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	got, err := crl.Parse(der)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Entries != nil {
		t.Fatalf("empty CRL has entries %v", got.Entries)
	}
}

func TestTamperedSignature(t *testing.T) {
	ca := newCA(t)
	der, err := crl.Create(ca.Certificate, ca.Key, &crl.CRL{ThisUpdate: thisUpdate, NextUpdate: nextUpdate}, crl.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := crl.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	got.Signature[0] ^= 0xff
	if err := got.CheckSignatureFrom(ca.Certificate); err == nil {
		t.Error("tampered CRL signature must not verify")
	}
}

func TestWrongIssuerSignature(t *testing.T) {
	ca := newCA(t)
	other := newCA(t)
	der, err := crl.Create(ca.Certificate, ca.Key, &crl.CRL{ThisUpdate: thisUpdate, NextUpdate: nextUpdate}, crl.CreateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := crl.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.CheckSignatureFrom(other.Certificate); err == nil {
		t.Error("CRL must not verify under an unrelated CA")
	}
}

func TestCreateErrors(t *testing.T) {
	ca := newCA(t)
	if _, err := crl.Create(nil, ca.Key, &crl.CRL{ThisUpdate: thisUpdate}, crl.CreateOptions{}); err == nil {
		t.Error("nil issuer should fail")
	}
	if _, err := crl.Create(ca.Certificate, ca.Key, &crl.CRL{}, crl.CreateOptions{}); err == nil {
		t.Error("zero thisUpdate should fail")
	}
	if _, err := crl.Parse([]byte("garbage")); err == nil {
		t.Error("Parse of garbage should fail")
	}
}

func TestParseUnsortedCRL(t *testing.T) {
	// Issuers are not obliged to emit entries in serial order. Create
	// always sorts, so hand-assemble the wire form with out-of-order
	// serials and check that Parse keeps the wire order.
	ca := newCA(t)
	sigAlgDER, err := pkixutil.SignatureAlgorithmForKey(ca.Key)
	if err != nil {
		t.Fatal(err)
	}
	sigAlg, err := algorithmIdentifier(sigAlgDER)
	if err != nil {
		t.Fatal(err)
	}
	tbs := tbsCertListASN1{
		Version:    1,
		Signature:  sigAlg,
		Issuer:     asn1.RawValue{FullBytes: ca.Certificate.RawSubject},
		ThisUpdate: thisUpdate,
		NextUpdate: nextUpdate,
		RevokedCertificates: []revokedCertASN1{
			{Serial: big.NewInt(300), RevokedAt: thisUpdate},
			{Serial: big.NewInt(100), RevokedAt: thisUpdate},
			{Serial: big.NewInt(200), RevokedAt: thisUpdate},
		},
	}
	tbsDER, err := asn1.Marshal(tbs)
	if err != nil {
		t.Fatal(err)
	}
	der, err := referenceSign(cryptorand.Reader, ca.Key, tbsDER)
	if err != nil {
		t.Fatal(err)
	}

	got, err := crl.Parse(der)
	if err != nil {
		t.Fatalf("Parse of unsorted CRL: %v", err)
	}
	// Wire order must be preserved, not silently re-sorted.
	if len(got.Entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(got.Entries))
	}
	for i, want := range []int64{300, 100, 200} {
		if got.Entries[i].Serial.Int64() != want {
			t.Errorf("entry %d serial = %v, want %d", i, got.Entries[i].Serial, want)
		}
	}
	if err := got.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Errorf("CheckSignatureFrom: %v", err)
	}
}
