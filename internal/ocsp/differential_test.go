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

// sameOutput fails t unless the DER writer and the encoding/asn1 reference
// agree: both fail, or both succeed with the same bytes.
func sameOutput(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: writer error %v, reference error %v", what, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: writer and reference differ\nwriter:    %x\nreference: %x", what, got, want)
	}
}

// FuzzCreateResponse checks CreateResponse against the encoding/asn1
// reference encoder over serials (zero, negative, 0x80-leading, long),
// every status and reason, times in and out of GeneralizedTime's year
// range, nonces, several singles and both ResponderID arms. The CA signs
// deterministically, so whole responses are compared.
func FuzzCreateResponse(f *testing.F) {
	ca := goldenCA(f)
	byKey := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate}
	byName := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate, ByName: true}
	id, err := NewCertIDForSerial(big.NewInt(1), ca.Certificate, crypto.SHA1)
	if err != nil {
		f.Fatal(err)
	}
	base := time.Date(2018, 6, 1, 9, 30, 15, 250_000_000, time.UTC)

	twenty := bytes.Repeat([]byte{0xa5}, 20)
	f.Add([]byte{}, false, uint8(0), int16(-1), uint16(2018), uint8(0), []byte(nil), false, uint8(0))
	f.Add([]byte{0x01}, true, uint8(1), int16(1), uint16(0), uint8(1), []byte(nil), false, uint8(0))
	f.Add([]byte{0x80}, false, uint8(1), int16(-1), uint16(9999), uint8(2), []byte{1, 2, 3}, true, uint8(1))
	f.Add([]byte{0x80, 0x00}, true, uint8(2), int16(300), uint16(10000), uint8(3), []byte(nil), false, uint8(2))
	f.Add(twenty, false, uint8(0), int16(0), uint16(10000), uint8(0), bytes.Repeat([]byte{7}, 300), true, uint8(2))
	f.Add(twenty, true, uint8(1), int16(-200), uint16(1), uint8(4), []byte{0}, false, uint8(1))

	f.Fuzz(func(t *testing.T, serial []byte, negative bool, status uint8, reason int16, year uint16, field uint8, nonce []byte, named bool, extra uint8) {
		// odd is base moved to the fuzzed year -1..10001; field picks
		// which of the four times gets it (4 and up: none).
		odd := time.Date(int(year)%10003-1, base.Month(), base.Day(), base.Hour(), base.Minute(), base.Second(), base.Nanosecond(), time.UTC)
		pick := func(k uint8, normal time.Time) time.Time {
			if field%5 == k {
				return odd
			}
			return normal
		}
		s := SingleResponse{
			CertID:     id,
			Status:     CertStatus(status % 4), // 3 is unsupported: both sides must fail
			RevokedAt:  pick(1, base.Add(-48*time.Hour)),
			Reason:     pkixutil.ReasonCode(reason),
			ThisUpdate: pick(2, base),
			NextUpdate: pick(3, base.Add(24*time.Hour)),
		}
		s.CertID.Serial = new(big.Int).SetBytes(serial)
		if negative {
			s.CertID.Serial.Neg(s.CertID.Serial)
		}
		singles := []SingleResponse{s}
		for i := 0; i < int(extra%3); i++ {
			more := s
			more.CertID.Serial = new(big.Int).Add(s.CertID.Serial, big.NewInt(int64(1000000+i)))
			more.NextUpdate = time.Time{}
			singles = append(singles, more)
		}
		tmpl := byKey
		if named {
			tmpl = byName
		}
		producedAt := pick(0, base)

		got, gotErr := CreateResponse(tmpl, producedAt, singles, nonce)
		want, wantErr := referenceCreateResponse(tmpl, producedAt, singles, nonce)
		sameOutput(t, "CreateResponse", got, gotErr, want, wantErr)
		if gotErr == nil && cap(got) != len(got) {
			t.Fatalf("response has capacity %d for %d bytes, want exact size", cap(got), len(got))
		}
	})
}

// TestCreateResponseMatchesASN1 runs the branches the fuzz target's
// seeded CA cannot reach: an RSA signer (whose AlgorithmIdentifier carries
// NULL parameters; PKCS #1 v1.5 is deterministic, so whole responses
// compare), embedded certificates, SHA-256 CertIDs and the template
// errors.
func TestCreateResponseMatchesASN1(t *testing.T) {
	ec := goldenCA(t)
	rsaCA, err := pki.NewRootCA(pki.Config{Name: "RSA Reference Root", KeyAlgorithm: pki.RSA2048})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2018, 6, 1, 9, 30, 15, 0, time.UTC)
	single := func(ca *pki.CA, h crypto.Hash, serial int64, st CertStatus, reason pkixutil.ReasonCode) SingleResponse {
		id, err := NewCertIDForSerial(big.NewInt(serial), ca.Certificate, h)
		if err != nil {
			t.Fatal(err)
		}
		return SingleResponse{CertID: id, Status: st, RevokedAt: at.Add(-time.Hour), Reason: reason, ThisUpdate: at, NextUpdate: at.Add(time.Hour)}
	}
	cases := []struct {
		name    string
		tmpl    *ResponderTemplate
		singles []SingleResponse
		nonce   []byte
	}{
		{"rsa-good", &ResponderTemplate{Signer: rsaCA.Key, Certificate: rsaCA.Certificate}, []SingleResponse{single(rsaCA, crypto.SHA1, 1001, Good, pkixutil.ReasonAbsent)}, nil},
		{"rsa-revoked-by-name", &ResponderTemplate{Signer: rsaCA.Key, Certificate: rsaCA.Certificate, ByName: true}, []SingleResponse{single(rsaCA, crypto.SHA256, 1002, Revoked, pkixutil.ReasonSuperseded)}, []byte{9, 9}},
		{"rsa-certificates", &ResponderTemplate{Signer: rsaCA.Key, Certificate: rsaCA.Certificate, IncludeCertificates: []*x509.Certificate{rsaCA.Certificate, ec.Certificate}}, []SingleResponse{single(rsaCA, crypto.SHA1, 1003, Unknown, pkixutil.ReasonAbsent)}, nil},
		{"ecdsa-sha256-certid", &ResponderTemplate{Signer: ec.Key, Certificate: ec.Certificate}, []SingleResponse{single(ec, crypto.SHA256, 1004, Good, pkixutil.ReasonAbsent)}, nil},
		{"ecdsa-many-singles", &ResponderTemplate{Signer: ec.Key, Certificate: ec.Certificate}, func() []SingleResponse {
			var s []SingleResponse
			for i := int64(0); i < 20; i++ {
				s = append(s, single(ec, crypto.SHA1, 5000+i, CertStatus(i%3), pkixutil.ReasonCode(i%11-1)))
			}
			return s
		}(), nil},
		{"unsupported-hash", &ResponderTemplate{Signer: ec.Key, Certificate: ec.Certificate}, func() []SingleResponse {
			s := single(ec, crypto.SHA1, 1005, Good, pkixutil.ReasonAbsent)
			s.CertID.HashAlgorithm = crypto.MD5
			return []SingleResponse{s}
		}(), nil},
		{"nil-serial", &ResponderTemplate{Signer: ec.Key, Certificate: ec.Certificate}, func() []SingleResponse {
			s := single(ec, crypto.SHA1, 1006, Good, pkixutil.ReasonAbsent)
			s.CertID.Serial = nil
			return []SingleResponse{s}
		}(), nil},
		{"no-singles", &ResponderTemplate{Signer: ec.Key, Certificate: ec.Certificate}, nil, nil},
		{"incomplete-template", &ResponderTemplate{Signer: ec.Key}, []SingleResponse{single(ec, crypto.SHA1, 1007, Good, pkixutil.ReasonAbsent)}, nil},
	}
	for _, tc := range cases {
		got, gotErr := CreateResponse(tc.tmpl, at, tc.singles, tc.nonce)
		want, wantErr := referenceCreateResponse(tc.tmpl, at, tc.singles, tc.nonce)
		sameOutput(t, tc.name, got, gotErr, want, wantErr)
		if gotErr == nil {
			if cap(got) != len(got) {
				t.Errorf("%s: capacity %d for %d bytes, want exact size", tc.name, cap(got), len(got))
			}
			if _, err := ParseResponse(got); err != nil {
				t.Errorf("%s: ParseResponse: %v", tc.name, err)
			}
		}
	}
}

// TestRequestMarshalMatchesASN1 checks Request.Marshal against the
// encoding/asn1 reference across request shapes: one and many CertIDs,
// both hashes, zero, negative and 0x80-leading serials, short and
// long-form nonces, and the error cases.
func TestRequestMarshalMatchesASN1(t *testing.T) {
	ca := goldenCA(t)
	id := func(h crypto.Hash, serial *big.Int) CertID {
		cid, err := NewCertIDForSerial(serial, ca.Certificate, h)
		if err != nil {
			t.Fatal(err)
		}
		return cid
	}
	many := make([]CertID, 0, 20)
	for i := int64(0); i < 20; i++ {
		many = append(many, id(crypto.SHA1, big.NewInt(1000+i)))
	}
	badHash := id(crypto.SHA1, big.NewInt(1))
	badHash.HashAlgorithm = crypto.MD5
	cases := []struct {
		name string
		req  *Request
	}{
		{"single", &Request{CertIDs: []CertID{id(crypto.SHA1, big.NewInt(1001))}}},
		{"sha256-nonce", &Request{CertIDs: []CertID{id(crypto.SHA256, big.NewInt(1001))}, Nonce: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		{"zero-serial", &Request{CertIDs: []CertID{id(crypto.SHA1, big.NewInt(0))}}},
		{"negative-serial", &Request{CertIDs: []CertID{id(crypto.SHA1, big.NewInt(-129))}}},
		{"0x80-serial", &Request{CertIDs: []CertID{id(crypto.SHA1, big.NewInt(0x80))}}},
		{"long-nonce", &Request{CertIDs: []CertID{id(crypto.SHA1, big.NewInt(1001))}, Nonce: bytes.Repeat([]byte{0x5a}, 70000)}},
		{"twenty-certids", &Request{CertIDs: many, Nonce: []byte{0xff}}},
		{"no-certids", &Request{}},
		{"unsupported-hash", &Request{CertIDs: []CertID{badHash}}},
	}
	for _, tc := range cases {
		got, gotErr := tc.req.Marshal()
		want, wantErr := referenceRequestMarshal(tc.req)
		sameOutput(t, tc.name, got, gotErr, want, wantErr)
	}
}

// TestErrorResponseMatchesASN1 covers every status byte ErrorResponse may
// be handed, including values outside the defined set.
func TestErrorResponseMatchesASN1(t *testing.T) {
	for _, st := range []ResponseStatus{1, 2, 3, 5, 6, 4, 127, 128, 300, -1, -129} {
		want, wantErr := referenceErrorResponse(st)
		sameOutput(t, st.String(), ErrorResponse(st), nil, want, wantErr)
	}
}
