package pkixutil

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/asn1"
	"math/big"
	"testing"
	"testing/quick"
)

// TestHashOIDRoundTrip reads each hash's AlgorithmIdentifier back to the
// hash it names.
func TestHashOIDRoundTrip(t *testing.T) {
	for _, h := range []crypto.Hash{crypto.SHA1, crypto.SHA256, crypto.SHA384, crypto.SHA512} {
		der, err := HashAlgorithmIdentifierDER(h)
		if err != nil {
			t.Fatalf("HashAlgorithmIdentifierDER(%v): %v", h, err)
		}
		in := Input(der)
		var oid Input
		if !in.ReadAlgorithmIdentifier(&oid) || len(in) != 0 {
			t.Fatalf("%v: %x is not one AlgorithmIdentifier", h, der)
		}
		if got, ok := HashFromOIDContents(oid); !ok || got != h {
			t.Errorf("round trip %v → %v %v", h, got, ok)
		}
	}
	if _, err := HashAlgorithmIdentifierDER(crypto.MD5); err == nil {
		t.Error("MD5 must be unsupported")
	}
	if _, ok := HashFromOIDContents(Input{0x2a, 0x03}); ok {
		t.Error("unknown OID must fail")
	}
}

// algorithmOID reads the algorithm OID of a DER AlgorithmIdentifier.
func algorithmOID(t *testing.T, der []byte) asn1.ObjectIdentifier {
	t.Helper()
	in := Input(der)
	var contents Input
	if !in.ReadAlgorithmIdentifier(&contents) || len(in) != 0 {
		t.Fatalf("%x is not one AlgorithmIdentifier", der)
	}
	oid, _ := contents.ObjectIdentifier()
	return oid
}

func TestSignVerifyECDSA(t *testing.T) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tbs := []byte("to be signed bytes")
	der, sig, err := SignTBS(nil, key, tbs)
	if err != nil {
		t.Fatal(err)
	}
	alg := algorithmOID(t, der)
	if !alg.Equal(OIDSignatureECDSAWithSHA256) {
		t.Errorf("alg = %v", alg)
	}
	if err := VerifyTBS(key.Public(), alg, tbs, sig); err != nil {
		t.Errorf("VerifyTBS: %v", err)
	}
	// Wrong message.
	if err := VerifyTBS(key.Public(), alg, []byte("other"), sig); err == nil {
		t.Error("verification of wrong message must fail")
	}
	// Wrong key.
	other, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err := VerifyTBS(other.Public(), alg, tbs, sig); err == nil {
		t.Error("verification under wrong key must fail")
	}
	// Algorithm/key family mismatch.
	if err := VerifyTBS(key.Public(), OIDSignatureSHA256WithRSA, tbs, sig); err == nil {
		t.Error("RSA OID with ECDSA key must fail")
	}
}

func TestSignVerifyRSA(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA keygen is slow")
	}
	key, err := rsa.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	tbs := []byte("rsa tbs")
	der, sig, err := SignTBS(nil, key, tbs)
	if err != nil {
		t.Fatal(err)
	}
	alg := algorithmOID(t, der)
	if !alg.Equal(OIDSignatureSHA256WithRSA) {
		t.Errorf("alg = %v", alg)
	}
	if !bytes.HasSuffix(der, []byte{0x05, 0x00}) {
		t.Error("RSA AlgorithmIdentifier must carry NULL params")
	}
	if err := VerifyTBS(key.Public(), alg, tbs, sig); err != nil {
		t.Errorf("VerifyTBS: %v", err)
	}
	if err := VerifyTBS(key.Public(), OIDSignatureECDSAWithSHA256, tbs, sig); err == nil {
		t.Error("ECDSA OID with RSA key must fail")
	}
}

func TestSignatureAlgorithmForKey(t *testing.T) {
	ec, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	der, err := SignatureAlgorithmForKey(ec)
	if err != nil {
		t.Fatal(err)
	}
	if alg := algorithmOID(t, der); !alg.Equal(OIDSignatureECDSAWithSHA256) {
		t.Errorf("ECDSA: %v", alg)
	}
}

func TestIssuerHashes(t *testing.T) {
	key, _ := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	tmpl := &x509.Certificate{SerialNumber: bigOne(), Subject: pkixName("Hash Test CA")}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	nameHash, err := IssuerNameHash(cert, crypto.SHA1)
	if err != nil || len(nameHash) != 20 {
		t.Fatalf("name hash: %x, %v", nameHash, err)
	}
	keyHash, err := IssuerKeyHash(cert, crypto.SHA1)
	if err != nil || len(keyHash) != 20 {
		t.Fatalf("key hash: %x, %v", keyHash, err)
	}
	// SHA-256 variants are 32 bytes and differ from SHA-1.
	nameHash256, err := IssuerNameHash(cert, crypto.SHA256)
	if err != nil || len(nameHash256) != 32 {
		t.Fatalf("sha256 name hash: %v", err)
	}
	// Two parses of the same cert hash identically.
	cert2, _ := x509.ParseCertificate(der)
	keyHash2, _ := IssuerKeyHash(cert2, crypto.SHA1)
	if string(keyHash) != string(keyHash2) {
		t.Error("key hash must be deterministic")
	}
}

func TestReasonCodes(t *testing.T) {
	if ReasonKeyCompromise.String() != "keyCompromise" {
		t.Errorf("got %q", ReasonKeyCompromise.String())
	}
	if ReasonAbsent.String() != "absent" {
		t.Errorf("got %q", ReasonAbsent.String())
	}
	if ReasonRemoveFromCRL.String() != "removeFromCRL" {
		t.Errorf("got %q", ReasonRemoveFromCRL.String())
	}
	if ReasonCode(7).String() != "reason(7)" {
		t.Errorf("got %q", ReasonCode(7).String())
	}
}

// reasonCodeExtension writes the crl-entry reasonCode extension for r
// with the DER writer, as the CRL encoder does.
func reasonCodeExtension(r ReasonCode) []byte {
	value := AppendEnumerated(nil, int64(r))
	return AppendElement(nil, TagSequence, AppendElement(OIDExtensionReasonCodeDER, TagOctetString, value))
}

// readReasonCode reads a reasonCode extension back with ReadExtension.
func readReasonCode(der []byte) (ReasonCode, bool) {
	in := Input(der)
	var oid, value Input
	var e Element
	if !in.ReadExtension(&oid, &value) || !bytes.Equal(oid, OIDExtensionReasonCodeDER[2:]) ||
		!value.ReadElement(&e, TagEnumerated) || len(value) != 0 {
		return ReasonAbsent, false
	}
	v, ok := e.Content.Enum()
	return ReasonCode(v), ok
}

func TestReasonCodeExtensionRoundTrip(t *testing.T) {
	for _, r := range []ReasonCode{ReasonUnspecified, ReasonKeyCompromise, ReasonCertificateHold, ReasonAACompromise} {
		der := reasonCodeExtension(r)
		want, err := asn1.Marshal(struct {
			ID    asn1.ObjectIdentifier
			Value []byte
		}{OIDExtensionReasonCode, mustMarshal(t, asn1.Enumerated(r))})
		if err != nil || !bytes.Equal(der, want) {
			t.Fatalf("%v: writer %x, encoding/asn1 %x (%v)", r, der, want, err)
		}
		if got, ok := readReasonCode(der); !ok || got != r {
			t.Errorf("round trip %v → %v %v", r, got, ok)
		}
	}
	if _, ok := readReasonCode([]byte("junk")); ok {
		t.Error("junk must not parse")
	}
	trailing := AppendElement(nil, TagSequence, AppendElement(OIDExtensionReasonCodeDER, TagOctetString, append(AppendEnumerated(nil, 1), 0x00)))
	if _, ok := readReasonCode(trailing); ok {
		t.Error("trailing bytes must be rejected")
	}
}

// Property: every reason code RFC 5280 defines survives the extension
// round trip.
func TestReasonRoundTripProperty(t *testing.T) {
	f := func(raw uint8) bool {
		r := ReasonCode(raw % 11)
		got, ok := readReasonCode(reasonCodeExtension(r))
		return ok && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	der, err := asn1.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

func bigOne() *big.Int { return big.NewInt(1) }

func pkixName(cn string) pkix.Name { return pkix.Name{CommonName: cn} }
