package ocsp

import (
	"bytes"
	"crypto"
	"crypto/x509"
	"encoding/hex"
	"math/big"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// The DER reader's contract is the encoding/asn1 parsers' verdict and
// fields on every input (reference_test.go). The fuzz targets check it on
// whatever the engine finds; their seeds are every body a responder of
// the simulated world emits, Figure 5's malformed bodies, and one input
// per encoding/asn1 quirk (parseQuirks).

// sameTime fails t unless a and b are the same instant with the same
// zone offset. time.Parse may hand back Local for an offset, so times are
// not compared with DeepEqual.
func sameTime(t *testing.T, what string, a, b time.Time) {
	t.Helper()
	_, oa := a.Zone()
	_, ob := b.Zone()
	if !a.Equal(b) || oa != ob || a.IsZero() != b.IsZero() {
		t.Fatalf("%s: reader %v, reference %v", what, a, b)
	}
}

// sameVerdict fails t unless both parsers reject input or both accept it.
func sameVerdict(t *testing.T, input []byte, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %x\nreader:    %v\nreference: %v", input, gotErr, wantErr)
	}
}

// sameRequest fails t unless ParseRequest and the reference agree on der.
func sameRequest(t *testing.T, der []byte) {
	t.Helper()
	got, gotErr := ParseRequest(der)
	want, wantErr := referenceParseRequest(der)
	sameVerdict(t, der, gotErr, wantErr)
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("fields differ on %x\nreader:    %+v\nreference: %+v", der, got, want)
	}
}

// sameResponse fails t unless ParseResponse and the reference agree on
// der: the times as sameTime has it, everything else deeply equal.
func sameResponse(t *testing.T, der []byte) {
	t.Helper()
	got, gotErr := ParseResponse(der)
	want, wantErr := referenceParseResponse(der)
	sameVerdict(t, der, gotErr, wantErr)
	if gotErr != nil {
		return
	}
	g, w := *got, *want
	sameTime(t, "producedAt", g.ProducedAt, w.ProducedAt)
	g.ProducedAt, w.ProducedAt = time.Time{}, time.Time{}
	if len(g.Responses) != len(w.Responses) {
		t.Fatalf("%d single responses, reference %d, on %x", len(g.Responses), len(w.Responses), der)
	}
	g.Responses = append([]SingleResponse(nil), g.Responses...)
	w.Responses = append([]SingleResponse(nil), w.Responses...)
	for i := range g.Responses {
		gs, ws := &g.Responses[i], &w.Responses[i]
		sameTime(t, "revokedAt", gs.RevokedAt, ws.RevokedAt)
		sameTime(t, "thisUpdate", gs.ThisUpdate, ws.ThisUpdate)
		sameTime(t, "nextUpdate", gs.NextUpdate, ws.NextUpdate)
		gs.RevokedAt, gs.ThisUpdate, gs.NextUpdate = time.Time{}, time.Time{}, time.Time{}
		ws.RevokedAt, ws.ThisUpdate, ws.NextUpdate = time.Time{}, time.Time{}, time.Time{}
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("fields differ on %x\nreader:    %+v\nreference: %+v", der, g, w)
	}
}

// FuzzParseResponse checks ParseResponse against the encoding/asn1
// reference: both reject an input, or both accept it with equal fields.
func FuzzParseResponse(f *testing.F) {
	for _, der := range worldResponses(f) {
		f.Add(der)
	}
	for _, body := range malformedBodies(f) {
		f.Add(body)
	}
	for _, q := range parseQuirks {
		if q.response {
			f.Add(q.der)
		}
	}
	f.Fuzz(func(t *testing.T, der []byte) { sameResponse(t, der) })
}

// FuzzParseRequest does the same for ParseRequest.
func FuzzParseRequest(f *testing.F) {
	for _, der := range worldRequests(f) {
		f.Add(der)
	}
	for _, body := range malformedBodies(f) {
		f.Add(body)
	}
	for _, q := range parseQuirks {
		if !q.response {
			f.Add(q.der)
		}
	}
	f.Fuzz(func(t *testing.T, der []byte) { sameRequest(t, der) })
}

// malformedBodies reads the 200 bodies that Figure 5 counts as
// unparseable from the list the responder package pins to what its
// responders serve (responder.malformedBody): empty, "0", a JavaScript
// page and truncated DER.
func malformedBodies(tb testing.TB) [][]byte {
	data, err := os.ReadFile("../responder/testdata/malformed-bodies.txt")
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		_, hexBody, _ := strings.Cut(line, " ")
		body, err := hex.DecodeString(hexBody)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, body)
	}
	return out
}

// worldResponses returns every shape of response the simulated world
// signs: each status, revoked with and without a reason, a blank
// nextUpdate, both ResponderID arms, a nonce, superfluous certificates,
// twenty serials, a SHA-256 CertID, and each error status.
func worldResponses(t testing.TB) [][]byte {
	ca := goldenCA(t)
	other, err := pki.NewRootCA(pki.Config{Name: "Superfluous Root"})
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2018, 6, 1, 9, 30, 15, 0, time.UTC)
	single := func(h crypto.Hash, serial int64, st CertStatus, reason pkixutil.ReasonCode, next time.Time) SingleResponse {
		id, err := NewCertIDForSerial(big.NewInt(serial), ca.Certificate, h)
		if err != nil {
			t.Fatal(err)
		}
		return SingleResponse{CertID: id, Status: st, RevokedAt: at.Add(-48 * time.Hour), Reason: reason, ThisUpdate: at, NextUpdate: next}
	}
	next := at.Add(24 * time.Hour)
	byKey := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate}
	byName := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate, ByName: true}
	chain := &ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate, IncludeCertificates: []*x509.Certificate{ca.Certificate, other.Certificate}}
	var twenty []SingleResponse
	for i := int64(0); i < 20; i++ {
		twenty = append(twenty, single(crypto.SHA1, 7000+i, Good, pkixutil.ReasonAbsent, next))
	}
	cases := []struct {
		tmpl    *ResponderTemplate
		singles []SingleResponse
		nonce   []byte
	}{
		{byKey, []SingleResponse{single(crypto.SHA1, 1001, Good, pkixutil.ReasonAbsent, next)}, nil},
		{byKey, []SingleResponse{single(crypto.SHA1, 1002, Revoked, pkixutil.ReasonKeyCompromise, next)}, nil},
		{byKey, []SingleResponse{single(crypto.SHA1, 1003, Revoked, pkixutil.ReasonAbsent, next)}, nil},
		{byKey, []SingleResponse{single(crypto.SHA1, 1004, Unknown, pkixutil.ReasonAbsent, next)}, nil},
		{byKey, []SingleResponse{single(crypto.SHA1, 1005, Good, pkixutil.ReasonAbsent, time.Time{})}, nil},
		{byName, []SingleResponse{single(crypto.SHA1, 1006, Good, pkixutil.ReasonAbsent, next)}, nil},
		{byKey, []SingleResponse{single(crypto.SHA1, 1007, Good, pkixutil.ReasonAbsent, next)}, []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{chain, []SingleResponse{single(crypto.SHA1, 1008, Good, pkixutil.ReasonAbsent, next)}, nil},
		{byKey, twenty, nil},
		{byKey, []SingleResponse{single(crypto.SHA256, 1009, Good, pkixutil.ReasonAbsent, next)}, nil},
	}
	var out [][]byte
	for _, c := range cases {
		der, err := CreateResponse(c.tmpl, at, c.singles, c.nonce)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, der)
	}
	for _, st := range []ResponseStatus{StatusMalformedRequest, StatusInternalError, StatusTryLater, StatusSigRequired, StatusUnauthorized} {
		out = append(out, ErrorResponse(st))
	}
	return out
}

// worldRequests returns the requests the scanner and the load generator
// send: one CertID under each hash, a nonce, and twenty CertIDs.
func worldRequests(t testing.TB) [][]byte {
	ca := goldenCA(t)
	id := func(h crypto.Hash, serial int64) CertID {
		cid, err := NewCertIDForSerial(big.NewInt(serial), ca.Certificate, h)
		if err != nil {
			t.Fatal(err)
		}
		return cid
	}
	var twenty []CertID
	for i := int64(0); i < 20; i++ {
		twenty = append(twenty, id(crypto.SHA1, 7000+i))
	}
	var out [][]byte
	for _, r := range []*Request{
		{CertIDs: []CertID{id(crypto.SHA1, 1001)}},
		{CertIDs: []CertID{id(crypto.SHA256, 1002)}},
		{CertIDs: []CertID{id(crypto.SHA1, 1003)}, Nonce: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		{CertIDs: twenty},
	} {
		der, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, der)
	}
	return out
}

// Hand-built DER for the quirk seeds. tlv wraps the concatenated parts in
// one element.
func tlv(tag byte, parts ...[]byte) []byte {
	return pkixutil.AppendElement(nil, tag, bytes.Join(parts, nil))
}

var (
	hash20    = bytes.Repeat([]byte{0x11}, 20)
	sha1AlgID = tlv(pkixutil.TagSequence, tlv(pkixutil.TagOID, []byte{0x2b, 0x0e, 0x03, 0x02, 0x1a}), []byte{0x05, 0x00})
	good      = []byte{pkixutil.TagContextPrimitive | 0, 0}
	byKeyID   = tlv(pkixutil.TagContextExplicit|2, tlv(pkixutil.TagOctetString, hash20))
	genTime   = tlv(pkixutil.TagGeneralizedTime, []byte("20180601093015Z"))
)

// certIDDER is a SHA-1 CertID whose serial INTEGER has the given contents.
func certIDDER(serial ...byte) []byte {
	return tlv(pkixutil.TagSequence, sha1AlgID, tlv(pkixutil.TagOctetString, hash20), tlv(pkixutil.TagOctetString, hash20), tlv(pkixutil.TagInteger, serial))
}

// requestDER wraps TBSRequest fields in an OCSPRequest.
func requestDER(tbsFields ...[]byte) []byte {
	return tlv(pkixutil.TagSequence, tlv(pkixutil.TagSequence, tbsFields...))
}

// requestList is a requestList of one request per CertID.
func requestList(ids ...[]byte) []byte {
	var reqs [][]byte
	for _, id := range ids {
		reqs = append(reqs, tlv(pkixutil.TagSequence, id))
	}
	return tlv(pkixutil.TagSequence, reqs...)
}

// responseDER wraps ResponseData fields in a successful OCSPResponse
// whose signature is four arbitrary bytes; basicTail follows the
// signature inside the BasicOCSPResponse.
func responseDER(dataFields [][]byte, basicTail ...[]byte) []byte {
	sigAlg := tlv(pkixutil.TagSequence, tlv(pkixutil.TagOID, []byte{0x2a, 0x86, 0x48, 0xce, 0x3d, 0x04, 0x03, 0x02}))
	basic := tlv(pkixutil.TagSequence, append([][]byte{tlv(pkixutil.TagSequence, dataFields...), sigAlg, {pkixutil.TagBitString, 5, 0, 1, 2, 3, 4}}, basicTail...)...)
	return tlv(pkixutil.TagSequence, []byte{pkixutil.TagEnumerated, 1, 0},
		tlv(pkixutil.TagContextExplicit|0, tlv(pkixutil.TagSequence, pkixutil.OIDOCSPBasicDER, tlv(pkixutil.TagOctetString, basic))))
}

// singleDER is a SingleResponse of the given fields.
func singleDER(fields ...[]byte) []byte {
	return tlv(pkixutil.TagSequence, fields...)
}

// responseWith is a byKey response produced at genTime holding one
// SingleResponse of the given fields.
func responseWith(singleFields ...[]byte) []byte {
	return responseDER([][]byte{byKeyID, genTime, tlv(pkixutil.TagSequence, singleDER(singleFields...))})
}

// parseQuirks holds one input per encoding/asn1 behaviour the reader
// keeps, with the verdict both parsers give it. Each is also a fuzz seed.
var parseQuirks = []struct {
	name     string
	response bool
	der      []byte
	accept   bool
}{
	// A SEQUENCE may end with elements no field reads.
	{"request-trailing-elements", false, requestDER(requestList(certIDDER(1)), []byte{0x05, 0x00}, []byte{0x05, 0x00}), true},
	{"request-signature-skipped", false, tlv(pkixutil.TagSequence, tlv(pkixutil.TagSequence, requestList(certIDDER(1))), tlv(pkixutil.TagContextExplicit|0, []byte{0x05, 0x00})), true},
	{"response-trailing-elements", true, responseWith(certIDDER(1), good, genTime, []byte{0x04, 0x01, 0xff}, []byte{0x05, 0x00}), true},
	// ...but an optional explicit field's wrapper header may not end it.
	{"response-empty-element-at-end", true, responseWith(certIDDER(1), good, genTime, []byte{0x05, 0x00}), false},

	// Every time field takes UTCTime, and GeneralizedTime with a
	// fraction or an offset.
	{"utctime-thisupdate", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagUTCTime, []byte("180601093015Z"))), true},
	{"utctime-no-seconds", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagUTCTime, []byte("1806010930Z"))), true},
	{"utctime-1950", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagUTCTime, []byte("500601093015Z"))), true},
	{"generalized-fraction", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagGeneralizedTime, []byte("20180601093015.25Z"))), true},
	{"generalized-offset", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagGeneralizedTime, []byte("20180601093015+0130"))), true},
	{"generalized-zero-offset", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagGeneralizedTime, []byte("20180601093015+0000"))), false},
	{"generalized-trailing-zero-fraction", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagGeneralizedTime, []byte("20180601093015.50Z"))), false},
	{"generalized-feb-29-2019", true, responseWith(certIDDER(1), good, tlv(pkixutil.TagGeneralizedTime, []byte("20190229093015Z"))), false},
	{"generalized-utctime-next-update", true, responseWith(certIDDER(1), good, genTime, tlv(pkixutil.TagContextExplicit|0, tlv(pkixutil.TagUTCTime, []byte("180602093015Z")))), true},
	{"revoked-utctime-reason", true, responseWith(certIDDER(1), tlv(pkixutil.TagContextExplicit|1, tlv(pkixutil.TagUTCTime, []byte("180501000000Z")), tlv(pkixutil.TagContextExplicit|0, []byte{pkixutil.TagEnumerated, 1, 4})), genTime), true},

	// A byKey ResponderID ignores what follows its OCTET STRING, and
	// the ResponderID and certStatus arms are told by tag number.
	{"bykey-trailing-bytes", true, responseDER([][]byte{tlv(pkixutil.TagContextExplicit|2, tlv(pkixutil.TagOctetString, hash20), []byte{0xde, 0xad}), genTime, tlv(pkixutil.TagSequence, singleDER(certIDDER(1), good, genTime))}), true},
	{"byname-universal-boolean", true, responseDER([][]byte{{pkixutil.TagBoolean, 1, 0xff}, genTime, tlv(pkixutil.TagSequence, singleDER(certIDDER(1), good, genTime))}), true},
	{"good-with-contents", true, responseWith(certIDDER(1), tlv(pkixutil.TagContextExplicit|0, []byte{0x05, 0x00}), genTime), true},

	// DER's minimal forms are enforced.
	{"non-minimal-length", false, append([]byte{0x30, 0x81}, requestDER(requestList(certIDDER(1)))[1:]...), false},
	{"non-minimal-integer", false, requestDER(requestList(certIDDER(0x00, 0x01))), false},
	{"non-minimal-negative-integer", true, responseWith(certIDDER(0xff, 0x80), good, genTime), false},
	{"negative-serial", false, requestDER(requestList(certIDDER(0xff, 0x7f))), true},
	{"negative-serial-response", true, responseWith(certIDDER(0x80), good, genTime), true},
	{"indefinite-length", false, []byte{0x30, 0x80, 0x00, 0x00}, false},

	// A multi-byte tag is read in base 128 and must need it.
	{"multi-byte-tag-trailing", false, requestDER(requestList(certIDDER(1)), []byte{0x9f, 0x1f, 0x01, 0x00}), true},
	{"multi-byte-tag-responder-id", true, responseDER([][]byte{{0xbf, 0x81, 0x00, 0x00}, genTime, tlv(pkixutil.TagSequence, singleDER(certIDDER(1), good, genTime))}), false},
	{"non-minimal-multi-byte-tag", false, requestDER(requestList(certIDDER(1)), []byte{0x9f, 0x02, 0x01, 0x00}), false},

	// An explicit wrapper's own length is not checked; the field ends
	// with its inner element.
	{"explicit-length-short", true, responseWith(certIDDER(1), good, genTime, append([]byte{pkixutil.TagContextExplicit | 0, 1}, genTime...)), true},
	{"explicit-length-long", false, requestDER([]byte{pkixutil.TagContextExplicit | 0, 0x7f, pkixutil.TagInteger, 1, 0}, requestList(certIDDER(1))), true},
	// An explicit field whose inner element has another type is absent,
	// and the next field reads from the wrapper.
	{"explicit-inner-mismatch", true, responseWith(certIDDER(1), good, genTime, tlv(pkixutil.TagContextExplicit|0, []byte{pkixutil.TagInteger, 1, 0})), true},

	// A nonce extension value that is not an OCTET STRING is taken
	// whole; a second nonce extension is ignored.
	{"bare-nonce", false, requestDER(requestList(certIDDER(1)), tlv(pkixutil.TagContextExplicit|2, tlv(pkixutil.TagSequence,
		tlv(pkixutil.TagSequence, pkixutil.OIDOCSPNonceDER, tlv(pkixutil.TagOctetString, []byte{1, 2, 3})),
		tlv(pkixutil.TagSequence, pkixutil.OIDOCSPNonceDER, tlv(pkixutil.TagOctetString, tlv(pkixutil.TagOctetString, []byte{4})))))), true},
	{"critical-nonce", false, requestDER(requestList(certIDDER(1)), tlv(pkixutil.TagContextExplicit|2, tlv(pkixutil.TagSequence,
		tlv(pkixutil.TagSequence, pkixutil.OIDOCSPNonceDER, []byte{pkixutil.TagBoolean, 1, 0xff}, tlv(pkixutil.TagOctetString, tlv(pkixutil.TagOctetString, []byte{5, 6}), []byte{0x05, 0x00}))))), true},
	{"critical-not-der-boolean", false, requestDER(requestList(certIDDER(1)), tlv(pkixutil.TagContextExplicit|2, tlv(pkixutil.TagSequence,
		tlv(pkixutil.TagSequence, pkixutil.OIDOCSPNonceDER, []byte{pkixutil.TagBoolean, 1, 0x01}, tlv(pkixutil.TagOctetString))))), false},
}

// TestParseQuirks pins each quirk's verdict on both parsers, and their
// agreement on its fields.
func TestParseQuirks(t *testing.T) {
	for _, q := range parseQuirks {
		t.Run(q.name, func(t *testing.T) {
			var err error
			if q.response {
				_, err = referenceParseResponse(q.der)
				sameResponse(t, q.der)
			} else {
				_, err = referenceParseRequest(q.der)
				sameRequest(t, q.der)
			}
			if (err == nil) != q.accept {
				t.Fatalf("accepted = %v, want %v (%v)", err == nil, q.accept, err)
			}
		})
	}
}

// TestParsedFieldsOwnTheirBytes overwrites the input after parsing. What
// encoding/asn1 copied — the CertID hashes, the nonce, the responder key
// hash, and the BasicOCSPResponse that RawTBS and Signature point into —
// must be untouched; only Response.Raw is the input itself.
func TestParsedFieldsOwnTheirBytes(t *testing.T) {
	ca := goldenCA(t)
	want, err := NewCertIDForSerial(big.NewInt(0x123456), ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	nonce := []byte{9, 8, 7, 6, 5, 4, 3, 2}
	reqDER, err := (&Request{CertIDs: []CertID{want}, Nonce: nonce}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	respDER, err := CreateResponse(&ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate}, testTime,
		[]SingleResponse{{CertID: want, Status: Good, ThisUpdate: testTime, Reason: pkixutil.ReasonAbsent}}, nonce)
	if err != nil {
		t.Fatal(err)
	}
	keyHash, err := pkixutil.IssuerKeyHash(ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, id CertID, gotNonce []byte) {
		t.Helper()
		if !id.Equal(want) {
			t.Errorf("%s: CertID after overwrite %x/%x/%v, want %x/%x/%v", what,
				id.IssuerNameHash, id.IssuerKeyHash, id.Serial, want.IssuerNameHash, want.IssuerKeyHash, want.Serial)
		}
		if !bytes.Equal(gotNonce, nonce) {
			t.Errorf("%s: nonce after overwrite %x, want %x", what, gotNonce, nonce)
		}
	}

	in := bytes.Clone(reqDER)
	req, err := ParseRequest(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 0xee
	}
	check("request", req.CertIDs[0], req.Nonce)

	in = bytes.Clone(respDER)
	resp, err := ParseResponse(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		in[i] = 0xee
	}
	check("response", resp.Responses[0].CertID, resp.Nonce)
	if !bytes.Equal(resp.ResponderKeyHash, keyHash) {
		t.Errorf("responder key hash after overwrite %x, want %x", resp.ResponderKeyHash, keyHash)
	}
	if err := resp.CheckSignatureFrom(ca.Certificate); err != nil {
		t.Errorf("RawTBS or Signature changed with the input: %v", err)
	}
}

// Allocations per parse of one-CertID messages (encoding/asn1 took 21
// for a request and 40 for a response). A request allocates the Request,
// its CertIDs, both hashes and the serial (a big.Int and its words); a
// response allocates the Response, the BasicOCSPResponse copy, its
// SingleResponses, the same four for the CertID, the responder key hash
// and the signature algorithm OID.
const (
	maxParseRequestAllocs  = 6
	maxParseResponseAllocs = 9
)

func TestParseAllocs(t *testing.T) {
	ca := goldenCA(t)
	id, err := NewCertIDForSerial(big.NewInt(0x123456), ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, err := (&Request{CertIDs: []CertID{id}}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	respDER, err := CreateResponse(&ResponderTemplate{Signer: ca.Key, Certificate: ca.Certificate}, testTime,
		[]SingleResponse{{CertID: id, Status: Good, ThisUpdate: testTime, NextUpdate: testTime.Add(time.Hour), Reason: pkixutil.ReasonAbsent}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseRequest(reqDER); err != nil {
			t.Fatal(err)
		}
	}); n > maxParseRequestAllocs {
		t.Errorf("ParseRequest allocates %.0f times, want at most %d", n, maxParseRequestAllocs)
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ParseResponse(respDER); err != nil {
			t.Fatal(err)
		}
	}); n > maxParseResponseAllocs {
		t.Errorf("ParseResponse allocates %.0f times, want at most %d", n, maxParseResponseAllocs)
	}
}
