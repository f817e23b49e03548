package ocsp

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"math/big"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// testPKI builds a small CA + leaf fixture shared by the tests in this
// package.
type testPKI struct {
	ca   *pki.CA
	leaf *pki.Leaf
}

func newTestPKI(t testing.TB) *testPKI {
	t.Helper()
	ca, err := pki.NewRootCA(pki.Config{Name: "OCSP Test Root", OCSPURL: "http://ocsp.test.example"})
	if err != nil {
		t.Fatalf("NewRootCA: %v", err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"www.example.test"}})
	if err != nil {
		t.Fatalf("IssueLeaf: %v", err)
	}
	return &testPKI{ca: ca, leaf: leaf}
}

func (p *testPKI) certID(t testing.TB) CertID {
	t.Helper()
	id, err := NewCertID(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatalf("NewCertID: %v", err)
	}
	return id
}

func (p *testPKI) template() *ResponderTemplate {
	return &ResponderTemplate{Signer: p.ca.Key, Certificate: p.ca.Certificate}
}

var testTime = time.Date(2018, 5, 1, 12, 0, 0, 0, time.UTC)

func TestRequestRoundTrip(t *testing.T) {
	p := newTestPKI(t)
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Nonce = []byte{1, 2, 3, 4, 5, 6, 7, 8}
	der, err := req.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParseRequest(der)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if len(got.CertIDs) != 1 {
		t.Fatalf("got %d CertIDs, want 1", len(got.CertIDs))
	}
	if !got.CertIDs[0].Equal(req.CertIDs[0]) {
		t.Errorf("CertID mismatch after round trip")
	}
	if !bytes.Equal(got.Nonce, req.Nonce) {
		t.Errorf("nonce mismatch: got %x want %x", got.Nonce, req.Nonce)
	}
}

func TestRequestMultiSerial(t *testing.T) {
	p := newTestPKI(t)
	req := &Request{}
	for i := 1; i <= 20; i++ {
		id, err := NewCertIDForSerial(big.NewInt(int64(1000+i)), p.ca.Certificate, crypto.SHA1)
		if err != nil {
			t.Fatalf("NewCertIDForSerial: %v", err)
		}
		req.CertIDs = append(req.CertIDs, id)
	}
	der, err := req.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := ParseRequest(der)
	if err != nil {
		t.Fatalf("ParseRequest: %v", err)
	}
	if len(got.CertIDs) != 20 {
		t.Fatalf("got %d CertIDs, want 20", len(got.CertIDs))
	}
	for i, id := range got.CertIDs {
		if id.Serial.Int64() != int64(1001+i) {
			t.Errorf("CertID %d: serial %v, want %d", i, id.Serial, 1001+i)
		}
	}
}

func TestRequestErrors(t *testing.T) {
	if _, err := (&Request{}).Marshal(); err == nil {
		t.Error("Marshal of empty request should fail")
	}
	if _, err := ParseRequest([]byte{0x30, 0x00}); err == nil {
		t.Error("ParseRequest of empty sequence should fail")
	}
	if _, err := ParseRequest([]byte("not der")); err == nil {
		t.Error("ParseRequest of garbage should fail")
	}
	if _, err := ParseRequest(nil); err == nil {
		t.Error("ParseRequest of nil should fail")
	}
}

func TestResponseGoodRoundTrip(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{
		CertID:     id,
		Status:     Good,
		ThisUpdate: testTime,
		NextUpdate: testTime.Add(7 * 24 * time.Hour),
		Reason:     pkixutil.ReasonAbsent,
	}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if resp.Status != StatusSuccessful {
		t.Fatalf("status = %v, want successful", resp.Status)
	}
	if !resp.ProducedAt.Equal(testTime) {
		t.Errorf("producedAt = %v, want %v", resp.ProducedAt, testTime)
	}
	got := resp.Find(id)
	if got == nil {
		t.Fatal("Find returned nil for requested CertID")
	}
	if got.Status != Good {
		t.Errorf("cert status = %v, want good", got.Status)
	}
	if !got.ThisUpdate.Equal(single.ThisUpdate) || !got.NextUpdate.Equal(single.NextUpdate) {
		t.Errorf("validity window mismatch: got [%v, %v]", got.ThisUpdate, got.NextUpdate)
	}
	if err := resp.CheckSignatureFrom(p.ca.Certificate); err != nil {
		t.Errorf("CheckSignatureFrom: %v", err)
	}
}

func TestResponseRevokedWithReason(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	revokedAt := testTime.Add(-48 * time.Hour)
	single := SingleResponse{
		CertID:     id,
		Status:     Revoked,
		RevokedAt:  revokedAt,
		Reason:     pkixutil.ReasonKeyCompromise,
		ThisUpdate: testTime,
		NextUpdate: testTime.Add(24 * time.Hour),
	}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	got := resp.Find(id)
	if got == nil {
		t.Fatal("Find returned nil")
	}
	if got.Status != Revoked {
		t.Fatalf("status = %v, want revoked", got.Status)
	}
	if !got.RevokedAt.Equal(revokedAt) {
		t.Errorf("revokedAt = %v, want %v", got.RevokedAt, revokedAt)
	}
	if got.Reason != pkixutil.ReasonKeyCompromise {
		t.Errorf("reason = %v, want keyCompromise", got.Reason)
	}
}

func TestResponseRevokedWithoutReason(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{
		CertID:     id,
		Status:     Revoked,
		RevokedAt:  testTime.Add(-time.Hour),
		Reason:     pkixutil.ReasonAbsent,
		ThisUpdate: testTime,
		NextUpdate: testTime.Add(24 * time.Hour),
	}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	got := resp.Find(id)
	if got.Reason != pkixutil.ReasonAbsent {
		t.Errorf("reason = %v, want absent (no reason code on the wire)", got.Reason)
	}
}

func TestResponseUnknown(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{
		CertID:     id,
		Status:     Unknown,
		ThisUpdate: testTime,
		NextUpdate: testTime.Add(24 * time.Hour),
		Reason:     pkixutil.ReasonAbsent,
	}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if got := resp.Find(id); got == nil || got.Status != Unknown {
		t.Errorf("status = %v, want unknown", got)
	}
}

func TestResponseBlankNextUpdate(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{
		CertID:     id,
		Status:     Good,
		ThisUpdate: testTime,
		Reason:     pkixutil.ReasonAbsent,
		// NextUpdate deliberately zero: blank on the wire.
	}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	got := resp.Find(id)
	if got.HasNextUpdate() {
		t.Fatalf("nextUpdate should be blank, got %v", got.NextUpdate)
	}
	// A blank nextUpdate is technically valid forever — the security
	// hazard §5.4 of the paper flags.
	if !got.ValidAt(testTime.AddDate(10, 0, 0)) {
		t.Error("blank nextUpdate response should validate 10 years out")
	}
	if got.ValidAt(testTime.Add(-time.Second)) {
		t.Error("response must not validate before thisUpdate")
	}
}

func TestResponseMultiSerial(t *testing.T) {
	p := newTestPKI(t)
	var singles []SingleResponse
	for i := 0; i < 20; i++ {
		id, err := NewCertIDForSerial(big.NewInt(int64(5000+i)), p.ca.Certificate, crypto.SHA1)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, SingleResponse{
			CertID: id, Status: Good, ThisUpdate: testTime,
			NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent,
		})
	}
	der, err := CreateResponse(p.template(), testTime, singles, nil)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if len(resp.Responses) != 20 {
		t.Fatalf("got %d single responses, want 20", len(resp.Responses))
	}
	if err := resp.CheckSignatureFrom(p.ca.Certificate); err != nil {
		t.Errorf("CheckSignatureFrom: %v", err)
	}
}

func TestResponseNonceEcho(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	nonce := []byte("0123456789abcdef")
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nonce)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if !bytes.Equal(resp.Nonce, nonce) {
		t.Errorf("nonce = %x, want %x", resp.Nonce, nonce)
	}
}

func TestResponseSerialMismatchDetectable(t *testing.T) {
	p := newTestPKI(t)
	requested := p.certID(t)
	other, err := NewCertIDForSerial(big.NewInt(999999), p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	single := SingleResponse{CertID: other, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Find(requested) != nil {
		t.Error("Find should miss: responder answered about a different serial")
	}
	if !resp.Responses[0].CertID.SameIssuer(requested) {
		t.Error("SameIssuer should hold — only the serial differs")
	}
}

func TestResponseTamperedSignature(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the signature.
	resp.Signature[len(resp.Signature)/2] ^= 0x40
	if err := resp.CheckSignatureFrom(p.ca.Certificate); err == nil {
		t.Error("CheckSignatureFrom should reject a tampered signature")
	}
}

func TestResponseWrongIssuer(t *testing.T) {
	p := newTestPKI(t)
	otherCA, err := pki.NewRootCA(pki.Config{Name: "Some Other Root"})
	if err != nil {
		t.Fatal(err)
	}
	id := p.certID(t)
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.CheckSignatureFrom(otherCA.Certificate); err == nil {
		t.Error("signature must not verify under an unrelated CA")
	}
}

func TestResponseDelegatedSigning(t *testing.T) {
	p := newTestPKI(t)
	delegate, err := p.ca.IssueOCSPResponderCert("OCSP Delegate", time.Time{}, time.Time{})
	if err != nil {
		t.Fatalf("IssueOCSPResponderCert: %v", err)
	}
	id := p.certID(t)
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	tmpl := &ResponderTemplate{
		Signer:              delegate.Key,
		Certificate:         delegate.Certificate,
		IncludeCertificates: []*x509.Certificate{delegate.Certificate},
	}
	der, err := CreateResponse(tmpl, testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatalf("CreateResponse: %v", err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	if len(resp.Certificates) != 1 {
		t.Fatalf("embedded certs = %d, want 1", len(resp.Certificates))
	}
	// Verifies via the delegated responder cert chained to the issuer.
	if err := resp.CheckSignatureFrom(p.ca.Certificate); err != nil {
		t.Errorf("delegated CheckSignatureFrom: %v", err)
	}
}

func TestResponseDelegationWithoutEKURejected(t *testing.T) {
	p := newTestPKI(t)
	// A plain leaf (no OCSPSigning EKU) must not be accepted as a
	// delegated responder even though the issuer signed it.
	imposter, err := p.ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"imposter.example.test"}})
	if err != nil {
		t.Fatal(err)
	}
	id := p.certID(t)
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	tmpl := &ResponderTemplate{
		Signer:              imposter.Key,
		Certificate:         imposter.Certificate,
		IncludeCertificates: []*x509.Certificate{imposter.Certificate},
	}
	der, err := CreateResponse(tmpl, testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.CheckSignatureFrom(p.ca.Certificate); err == nil {
		t.Error("a delegate without the OCSPSigning EKU must be rejected")
	}
}

func TestResponseByNameResponderID(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	tmpl := p.template()
	tmpl.ByName = true
	der, err := CreateResponse(tmpl, testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.ResponderRawName) == 0 {
		t.Error("byName responder ID missing")
	}
	if len(resp.ResponderKeyHash) != 0 {
		t.Error("byKey hash should be empty for byName responses")
	}
	if err := resp.CheckSignatureFrom(p.ca.Certificate); err != nil {
		t.Errorf("CheckSignatureFrom: %v", err)
	}
}

func TestErrorResponses(t *testing.T) {
	for _, status := range []ResponseStatus{StatusMalformedRequest, StatusInternalError, StatusTryLater, StatusSigRequired, StatusUnauthorized} {
		der := ErrorResponse(status)
		resp, err := ParseResponse(der)
		if err != nil {
			t.Fatalf("ParseResponse(%v): %v", status, err)
		}
		if resp.Status != status {
			t.Errorf("status = %v, want %v", resp.Status, status)
		}
		if len(resp.Responses) != 0 {
			t.Errorf("error response carries single responses")
		}
		if again := ErrorResponse(status); &again[0] != &der[0] {
			t.Errorf("ErrorResponse(%v) built a second copy", status)
		}
	}
	if der := ErrorResponse(StatusSuccessful); der != nil {
		t.Errorf("ErrorResponse(successful) = %x, want nil", der)
	}
}

// TestVerifiedSingle pins the client-side staple check in one place: each
// way a staple is rejected, and the two accepted shapes beyond the plain
// issuer-signed SHA-1 one (a delegated responder with the OCSPSigning
// EKU, and a SHA-256 CertID).
func TestVerifiedSingle(t *testing.T) {
	p := newTestPKI(t)
	otherCA, err := pki.NewRootCA(pki.Config{Name: "Some Other Root"})
	if err != nil {
		t.Fatal(err)
	}
	delegate, err := p.ca.IssueOCSPResponderCert("OCSP Delegate", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	imposter, err := p.ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"imposter.example.test"}})
	if err != nil {
		t.Fatal(err)
	}
	sha256ID, err := NewCertID(p.leaf.Certificate, p.ca.Certificate, crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	otherSerial, err := NewCertIDForSerial(big.NewInt(999999), p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	sign := func(signer *pki.Leaf, id CertID) []byte {
		t.Helper()
		tmpl := p.template()
		if signer != nil {
			tmpl = &ResponderTemplate{Signer: signer.Key, Certificate: signer.Certificate,
				IncludeCertificates: []*x509.Certificate{signer.Certificate}}
		}
		single := SingleResponse{CertID: id, Status: Revoked, RevokedAt: testTime.Add(-time.Hour),
			ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
		der, err := CreateResponse(tmpl, testTime, []SingleResponse{single}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return der
	}
	sha1ID := p.certID(t)
	good := sign(nil, sha1ID)
	tampered := append([]byte(nil), good...)
	tampered[len(tampered)-2] ^= 0x40 // inside the signature BIT STRING
	if _, err := ParseResponse(tampered); err != nil {
		t.Fatalf("tampered response no longer parses: %v", err)
	}
	tryLater := ErrorResponse(StatusTryLater)

	cases := []struct {
		name   string
		der    []byte
		issuer *x509.Certificate
		want   *CertID // nil: rejected
	}{
		{"issuer-signed", good, p.ca.Certificate, &sha1ID},
		{"unparseable", []byte("<html>"), p.ca.Certificate, nil},
		{"not successful", tryLater, p.ca.Certificate, nil},
		{"bad signature", tampered, p.ca.Certificate, nil},
		{"another issuer", good, otherCA.Certificate, nil},
		{"another certificate", sign(nil, otherSerial), p.ca.Certificate, nil},
		{"delegate without EKU", sign(imposter, sha1ID), p.ca.Certificate, nil},
		{"delegate with EKU", sign(delegate, sha1ID), p.ca.Certificate, &sha1ID},
		{"SHA-256 CertID", sign(nil, sha256ID), p.ca.Certificate, &sha256ID},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			single, err := VerifiedSingle(c.der, p.leaf.Certificate, c.issuer)
			if c.want == nil {
				if err == nil {
					t.Fatalf("accepted: %+v", single)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !single.CertID.Equal(*c.want) || single.Status != Revoked || !single.ThisUpdate.Equal(testTime) {
				t.Fatalf("returned %+v, want the revoked single response for %+v", single, *c.want)
			}
		})
	}
}

func TestParseResponseMalformedBodies(t *testing.T) {
	// The malformed bodies the paper saw in the wild (§5.3): empty,
	// the literal "0", and JavaScript pages.
	cases := map[string][]byte{
		"empty":      {},
		"zero":       []byte("0"),
		"javascript": []byte("<script>alert('not ocsp')</script>"),
		"truncated":  {0x30, 0x82, 0xff, 0xff, 0x0a},
	}
	for name, body := range cases {
		if _, err := ParseResponse(body); err == nil {
			t.Errorf("%s: ParseResponse should fail", name)
		}
	}
}

func TestParseResponseUndefinedStatus(t *testing.T) {
	// Outer status 4 is not defined by RFC 6960.
	der := []byte{0x30, 0x03, 0x0a, 0x01, 0x04}
	if _, err := ParseResponse(der); err == nil {
		t.Error("undefined response status should be rejected")
	}
}

func TestGETPathRoundTrip(t *testing.T) {
	p := newTestPKI(t)
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	der, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := EncodeGETPath(der)
	got, err := DecodeGETPath(path)
	if err != nil {
		t.Fatalf("DecodeGETPath: %v", err)
	}
	if !bytes.Equal(got, der) {
		t.Error("GET path round trip mismatch")
	}
	// With a leading slash, as a handler would see it.
	got, err = DecodeGETPath("/" + path)
	if err != nil || !bytes.Equal(got, der) {
		t.Errorf("DecodeGETPath with leading slash: %v", err)
	}
}

func TestCertIDSHA256(t *testing.T) {
	p := newTestPKI(t)
	id, err := NewCertID(p.leaf.Certificate, p.ca.Certificate, crypto.SHA256)
	if err != nil {
		t.Fatalf("NewCertID(SHA256): %v", err)
	}
	if len(id.IssuerNameHash) != 32 || len(id.IssuerKeyHash) != 32 {
		t.Fatalf("SHA-256 hashes should be 32 bytes, got %d/%d", len(id.IssuerNameHash), len(id.IssuerKeyHash))
	}
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Find(id) == nil {
		t.Error("SHA-256 CertID should round trip and match")
	}
	// A SHA-1 CertID for the same cert must not match the SHA-256 one.
	sha1ID := p.certID(t)
	if resp.Find(sha1ID) != nil {
		t.Error("SHA-1 CertID must not match a SHA-256 response entry")
	}
}

func TestRSASignedResponse(t *testing.T) {
	if testing.Short() {
		t.Skip("RSA key generation is slow")
	}
	ca, err := pki.NewRootCA(pki.Config{Name: "RSA Root", KeyAlgorithm: pki.RSA2048})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"rsa.example.test"}})
	if err != nil {
		t.Fatal(err)
	}
	id, err := NewCertID(leaf.Certificate, ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	single := SingleResponse{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}
	der, err := CreateResponse(&ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate}, testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.SignatureAlgorithm.Equal(pkixutil.OIDSignatureSHA256WithRSA) {
		t.Errorf("signature algorithm = %v, want sha256WithRSA", resp.SignatureAlgorithm)
	}
	if err := resp.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Errorf("RSA CheckSignatureFrom: %v", err)
	}
}

func TestResponseStatusStrings(t *testing.T) {
	if StatusTryLater.String() != "tryLater" {
		t.Errorf("got %q", StatusTryLater.String())
	}
	if Good.String() != "good" || Revoked.String() != "revoked" || Unknown.String() != "unknown" {
		t.Error("CertStatus string mismatch")
	}
	if ResponseStatus(4).Valid() {
		t.Error("status 4 is undefined and must not be Valid")
	}
}
