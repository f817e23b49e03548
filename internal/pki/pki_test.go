package pki

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

func TestRootCA(t *testing.T) {
	ca, err := NewRootCA(Config{Name: "Test Root R1"})
	if err != nil {
		t.Fatalf("NewRootCA: %v", err)
	}
	if !ca.Certificate.IsCA {
		t.Error("root is not a CA")
	}
	if ca.Certificate.Subject.CommonName != "Test Root R1" {
		t.Errorf("CN = %q", ca.Certificate.Subject.CommonName)
	}
	if err := ca.Certificate.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Errorf("root self-signature: %v", err)
	}
}

func TestMustStapleExtension(t *testing.T) {
	ca, err := NewRootCA(Config{Name: "MS Root", OCSPURL: "http://ocsp.ms.test"})
	if err != nil {
		t.Fatal(err)
	}
	with, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"staple.test"}, MustStaple: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"nostaple.test"}})
	if err != nil {
		t.Fatal(err)
	}
	if !HasMustStaple(with.Certificate) {
		t.Error("Must-Staple extension not detected on certificate that has it")
	}
	if HasMustStaple(without.Certificate) {
		t.Error("Must-Staple detected on certificate without it")
	}
	// Check the OID appears among the parsed extensions (i.e., it
	// survived a real x509 encode/parse round trip).
	found := false
	for _, ext := range with.Certificate.Extensions {
		if ext.Id.String() == "1.3.6.1.5.5.7.1.24" {
			found = true
		}
	}
	if !found {
		t.Error("TLS-Feature OID 1.3.6.1.5.5.7.1.24 missing from parsed extensions")
	}
}

// referenceHasMustStaple is HasMustStaple on encoding/asn1.
func referenceHasMustStaple(cert *x509.Certificate) bool {
	for _, ext := range cert.Extensions {
		if !ext.Id.Equal(pkixutil.OIDExtensionTLSFeature) {
			continue
		}
		var features []int
		if _, err := asn1.Unmarshal(ext.Value, &features); err != nil {
			return false
		}
		for _, f := range features {
			if f == tlsFeatureStatusRequest {
				return true
			}
		}
	}
	return false
}

// TestMustStapleMatchesASN1 holds MustStapleExtension to encoding/asn1's
// bytes, and HasMustStaple to the encoding/asn1 version on feature lists,
// each truncation and byte flip of them, trailing bytes, and a malformed
// list ahead of a good one.
func TestMustStapleMatchesASN1(t *testing.T) {
	want, err := asn1.Marshal([]int{tlsFeatureStatusRequest})
	if err != nil {
		t.Fatal(err)
	}
	if got := MustStapleExtension(); !bytes.Equal(got.Value, want) || !got.Id.Equal(pkixutil.OIDExtensionTLSFeature) {
		t.Fatalf("MustStapleExtension = %v %x, want %x", got.Id, got.Value, want)
	}
	var values [][]byte
	for _, features := range [][]int{{5}, {17}, {17, 5}, {5, 1 << 40}, {}, {-5, 300, 5}} {
		v, err := asn1.Marshal(features)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, v, append(bytes.Clone(v), 0x05, 0x00))
		for i := range v {
			values = append(values, v[:i])
			for _, x := range []byte{0x01, 0x20, 0x80, 0xff} {
				m := bytes.Clone(v)
				m[i] ^= x
				values = append(values, m)
			}
		}
	}
	check := func(exts ...[]byte) {
		t.Helper()
		cert := &x509.Certificate{}
		for _, v := range exts {
			cert.Extensions = append(cert.Extensions, pkix.Extension{Id: pkixutil.OIDExtensionTLSFeature, Value: v})
		}
		if got, want := HasMustStaple(cert), referenceHasMustStaple(cert); got != want {
			t.Fatalf("HasMustStaple(%x) = %v, encoding/asn1 %v", exts, got, want)
		}
	}
	for _, v := range values {
		check(v)
		check(v, want)
		check([]byte{0x30, 0x03, 0x02, 0x01, 0x11}, v)
	}
}

func TestAIAAndCRLDP(t *testing.T) {
	ca, err := NewRootCA(Config{Name: "AIA Root", OCSPURL: "http://ocsp.aia.test", CRLURL: "http://crl.aia.test/r.crl"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"aia.test"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := OCSPURL(leaf.Certificate); got != "http://ocsp.aia.test" {
		t.Errorf("OCSPURL = %q", got)
	}
	if !SupportsOCSP(leaf.Certificate) {
		t.Error("SupportsOCSP should be true")
	}
	if len(leaf.Certificate.CRLDistributionPoints) != 1 || leaf.Certificate.CRLDistributionPoints[0] != "http://crl.aia.test/r.crl" {
		t.Errorf("CRLDP = %v", leaf.Certificate.CRLDistributionPoints)
	}

	// Omissions.
	noOCSP, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"noocsp.test"}, OmitOCSP: true})
	if err != nil {
		t.Fatal(err)
	}
	if SupportsOCSP(noOCSP.Certificate) {
		t.Error("OmitOCSP leaf should not support OCSP")
	}
	noCRL, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"nocrl.test"}, OmitCRL: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(noCRL.Certificate.CRLDistributionPoints) != 0 {
		t.Error("OmitCRL leaf should have no CRLDP")
	}

	// Per-leaf override.
	ovr, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"ovr.test"}, OCSPURL: "http://other.ocsp.test"})
	if err != nil {
		t.Fatal(err)
	}
	if got := OCSPURL(ovr.Certificate); got != "http://other.ocsp.test" {
		t.Errorf("override OCSPURL = %q", got)
	}
}

func TestSerialAllocation(t *testing.T) {
	ca, err := NewRootCA(Config{Name: "Serial Root", SerialBase: 50000})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"a.test"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"b.test"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Certificate.SerialNumber.Cmp(b.Certificate.SerialNumber) == 0 {
		t.Error("two leaves share a serial")
	}
	if a.Certificate.SerialNumber.Int64() <= 50000 {
		t.Errorf("serial %v should exceed the base", a.Certificate.SerialNumber)
	}
	// Explicit serial override.
	want := big.NewInt(123456789)
	c, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"c.test"}, Serial: want})
	if err != nil {
		t.Fatal(err)
	}
	if c.Certificate.SerialNumber.Cmp(want) != 0 {
		t.Errorf("serial = %v, want %v", c.Certificate.SerialNumber, want)
	}
}

func TestDeterministicGeneration(t *testing.T) {
	// Two CAs built from identically seeded readers should have
	// identical keys (reproducible worlds).
	mk := func() *CA {
		r := rand.New(rand.NewSource(7))
		ca, err := NewRootCA(Config{Name: "Det Root", Rand: r})
		if err != nil {
			t.Fatal(err)
		}
		return ca
	}
	a, b := mk(), mk()
	ka := a.Key.Public().(*ecdsa.PublicKey)
	kb := b.Key.Public().(*ecdsa.PublicKey)
	if ka.X.Cmp(kb.X) != 0 || ka.Y.Cmp(kb.Y) != 0 {
		t.Error("same seed should produce the same CA key")
	}
	// Seeded keys sign deterministically, so the self-signed certificate
	// DER — not just the key — is byte-identical across builds.
	if !bytes.Equal(a.Certificate.Raw, b.Certificate.Raw) {
		t.Error("same seed should produce byte-identical certificate DER")
	}
}

func TestDeterministicSigner(t *testing.T) {
	key, err := GenerateKey(rand.New(rand.NewSource(11)), ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	det, ok := key.(*DeterministicSigner)
	if !ok {
		t.Fatalf("seeded ECDSA key is %T, want *DeterministicSigner", key)
	}
	digest := sha256.Sum256([]byte("tbs bytes"))
	sig1, err := det.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := det.Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sig1, sig2) {
		t.Error("same (key, digest) must produce the same signature")
	}
	other := sha256.Sum256([]byte("different tbs"))
	sig3, err := det.Sign(nil, other[:], crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(sig1, sig3) {
		t.Error("different digests must produce different signatures")
	}
	// Signatures verify with stock ECDSA verification.
	pub := det.Public().(*ecdsa.PublicKey)
	if !ecdsa.VerifyASN1(pub, digest[:], sig1) {
		t.Error("deterministic signature failed standard verification")
	}
	if !ecdsa.VerifyASN1(pub, other[:], sig3) {
		t.Error("second deterministic signature failed standard verification")
	}
}

func TestRSALeaf(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA key generation is slow")
	}
	ca, err := NewRootCA(Config{Name: "RSA Issuer"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"rsa.test"}, KeyAlgorithm: RSA2048})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := leaf.Key.Public().(*rsa.PublicKey); !ok {
		t.Errorf("leaf key is %T, want RSA", leaf.Key.Public())
	}
}

func TestOCSPResponderCert(t *testing.T) {
	ca, err := NewRootCA(Config{Name: "Delegation Root"})
	if err != nil {
		t.Fatal(err)
	}
	d, err := ca.IssueOCSPResponderCert("Delegated Responder", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	hasEKU := false
	for _, eku := range d.Certificate.ExtKeyUsage {
		if eku == x509.ExtKeyUsageOCSPSigning {
			hasEKU = true
		}
	}
	if !hasEKU {
		t.Error("delegated responder certificate lacks OCSPSigning EKU")
	}
	if err := d.Certificate.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Errorf("delegate not signed by CA: %v", err)
	}
}

func TestLeafValidityDefaults(t *testing.T) {
	ca, err := NewRootCA(Config{Name: "Validity Root"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(LeafOptions{DNSNames: []string{"v.test"}})
	if err != nil {
		t.Fatal(err)
	}
	got := leaf.Certificate.NotAfter.Sub(leaf.Certificate.NotBefore)
	if got != 90*24*time.Hour {
		t.Errorf("default validity = %v, want 90 days", got)
	}
	if _, err := ca.IssueLeaf(LeafOptions{}); err == nil {
		t.Error("leaf without DNS names should fail")
	}
}

func TestKeyAlgorithmString(t *testing.T) {
	if ECDSAP256.String() != "ECDSA-P256" || RSA2048.String() != "RSA-2048" {
		t.Error("KeyAlgorithm string mismatch")
	}
}
