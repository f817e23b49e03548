package ocsp

import (
	"crypto"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

func TestFormatResponseGood(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{
		CertID: id, Status: Good,
		ThisUpdate: testTime, NextUpdate: testTime.Add(7 * 24 * time.Hour),
		Reason: pkixutil.ReasonAbsent,
	}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, []byte{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResponse(resp)
	for _, want := range []string{
		"OCSP Response Status: successful",
		"Responder ID: byKey",
		"Cert Status: good",
		"Next Update: 2018-05-08 12:00:00 UTC (validity 168h0m0s)",
		"Nonce: 0102",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatResponseRevokedAndBlank(t *testing.T) {
	p := newTestPKI(t)
	id := p.certID(t)
	single := SingleResponse{
		CertID: id, Status: Revoked,
		RevokedAt: testTime.Add(-time.Hour), Reason: pkixutil.ReasonKeyCompromise,
		ThisUpdate: testTime, // blank nextUpdate
	}
	der, err := CreateResponse(p.template(), testTime, []SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ParseResponse(der)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResponse(resp)
	for _, want := range []string{
		"Cert Status: revoked",
		"Revocation Reason: keyCompromise",
		"blank — response never expires",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFormatErrorResponse(t *testing.T) {
	resp, err := ParseResponse(ErrorResponse(StatusTryLater))
	if err != nil {
		t.Fatal(err)
	}
	out := FormatResponse(resp)
	if !strings.Contains(out, "tryLater") {
		t.Errorf("missing status in %q", out)
	}
	if strings.Contains(out, "Responses") {
		t.Error("error responses carry no single responses")
	}
}

func TestFormatRequest(t *testing.T) {
	p := newTestPKI(t)
	req, err := NewRequest(p.leaf.Certificate, p.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	req.Nonce = []byte{0xaa}
	out := FormatRequest(req)
	for _, want := range []string{"1 certificate IDs", "SHA-1", "Nonce: aa"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
