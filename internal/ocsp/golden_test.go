package ocsp

import (
	"crypto"
	"crypto/sha256"
	"crypto/x509"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// goldenCA is a seeded CA: its key is a pki.DeterministicSigner, so every
// response it signs is a pure function of the inputs and can be pinned by
// hash.
func goldenCA(t testing.TB) *pki.CA {
	t.Helper()
	ca, err := pki.NewRootCA(pki.Config{
		Name:    "Golden Vector Root",
		OCSPURL: "http://ocsp.golden.test",
		Rand:    rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatalf("NewRootCA: %v", err)
	}
	if _, ok := ca.Key.(*pki.DeterministicSigner); !ok {
		t.Fatalf("seeded CA key is %T, want *pki.DeterministicSigner", ca.Key)
	}
	return ca
}

// TestCreateResponseGoldenVectors pins the exact bytes CreateResponse
// emits for every branch of the encoder. The hashes were recorded from the
// encoding/asn1 reflection encoder; any byte drift in the DER writer, the
// deterministic signer or the envelope layout fails here.
func TestCreateResponseGoldenVectors(t *testing.T) {
	ca := goldenCA(t)
	at := time.Date(2018, 6, 1, 9, 30, 15, 0, time.UTC)
	id := func(serial int64) CertID {
		cid, err := NewCertIDForSerial(big.NewInt(serial), ca.Certificate, crypto.SHA1)
		if err != nil {
			t.Fatal(err)
		}
		return cid
	}
	good := func(serial int64) SingleResponse {
		return SingleResponse{CertID: id(serial), Status: Good, ThisUpdate: at, NextUpdate: at.Add(7 * 24 * time.Hour), Reason: pkixutil.ReasonAbsent}
	}
	revoked := good(1002)
	revoked.Status, revoked.RevokedAt, revoked.Reason = Revoked, at.Add(-36*time.Hour), pkixutil.ReasonKeyCompromise
	noReason := revoked
	noReason.Reason = pkixutil.ReasonAbsent
	unknown := good(1003)
	unknown.Status = Unknown
	blank := good(1001)
	blank.NextUpdate = time.Time{}

	byKey := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate}
	byName := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate, ByName: true}
	withCerts := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate, IncludeCertificates: []*x509.Certificate{ca.Certificate}}

	cases := []struct {
		name    string
		tmpl    *ResponderTemplate
		singles []SingleResponse
		nonce   []byte
		want    string
	}{
		{"good", byKey, []SingleResponse{good(1001)}, nil, "862338c73c6961932368bb52147799080d0b1caa5c8b572b690eb8f5800254ea"},
		{"revoked-reason", byKey, []SingleResponse{revoked}, nil, "f0ace7855c2a77d2591aa4cf3017b996305bf4411a17c069970fab0e5bcc88ad"},
		{"revoked-no-reason", byKey, []SingleResponse{noReason}, nil, "1284d4e7e40e82f019f67b38150bd03bcce36b5178ac1c8e1fe010094c39c46f"},
		{"unknown", byKey, []SingleResponse{unknown}, nil, "bcb0e3de023fdbddfb253700ac3a8af1e1bc3188b224a6c97228528dd18cb61e"},
		{"nonce", byKey, []SingleResponse{good(1001)}, []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04}, "347789230247b76bef9cab4b9d8afcd349792d5b95ad432de63c38b5a6314e39"},
		{"by-name", byName, []SingleResponse{good(1001)}, nil, "28bf447403d89fbb2a43a052128e069d742fad073e8dacb03b6ef325fd85c19d"},
		{"include-certificates", withCerts, []SingleResponse{good(1001)}, nil, "ab7dd212599aaa2bdf069dd6a02c9f2062470100fa403b3c7307ddf46da537b2"},
		{"blank-next-update", byKey, []SingleResponse{blank}, nil, "c79cc2ef8494583d10ba7d9cb6c8dca499270acc02baf0d18e9d5a0e415c6b8c"},
		{"extra-serials", byKey, []SingleResponse{good(1001), good(1001 + 1000000), good(1001 + 1000001)}, nil, "7a7d547f37dcb7fa815fc983771d48f9a06c3be0fd721b25fb134d9221d521f8"},
	}
	for _, tc := range cases {
		der, err := CreateResponse(tc.tmpl, at, tc.singles, tc.nonce)
		if err != nil {
			t.Fatalf("%s: CreateResponse: %v", tc.name, err)
		}
		sum := sha256.Sum256(der)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: sha256(DER) = %s, want %s", tc.name, got, tc.want)
		}
	}
}
