package crl_test

import (
	"bytes"
	"crypto/x509"
	"encoding/hex"
	"math/big"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/crl"
	"github.com/netmeasure/muststaple/internal/netsim"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/world"
)

// The codec's contract is the encoding/asn1 codec's (reference_test.go):
// Create writes the same bytes and fails where it failed, and Parse gives
// the same verdict and fields on every input. Where crypto/x509 accepts a
// CRL, Parse must too, with the same contents, except for the decided
// differences between crypto/x509 and encoding/asn1 (x509Difference,
// DESIGN.md §17).

// sameTime fails t unless a and b are the same instant with the same
// zone offset. time.Parse may hand back Local for an offset, so times are
// not compared with DeepEqual.
func sameTime(t *testing.T, what string, a, b time.Time) {
	t.Helper()
	_, oa := a.Zone()
	_, ob := b.Zone()
	if !a.Equal(b) || oa != ob || a.IsZero() != b.IsZero() {
		t.Fatalf("%s: got %v, want %v", what, a, b)
	}
}

// sameCRL fails t unless Parse and the reference agree on der: the times
// as sameTime has it, everything else deeply equal. It returns Parse's
// result.
func sameCRL(t *testing.T, der []byte) (*crl.CRL, error) {
	t.Helper()
	got, gotErr := crl.Parse(der)
	want, wantErr := referenceParse(der)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %x\nreader:    %v\nreference: %v", der, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil, gotErr
	}
	g, w := *got, *want
	sameTime(t, "thisUpdate", g.ThisUpdate, w.ThisUpdate)
	sameTime(t, "nextUpdate", g.NextUpdate, w.NextUpdate)
	g.ThisUpdate, g.NextUpdate, w.ThisUpdate, w.NextUpdate = time.Time{}, time.Time{}, time.Time{}, time.Time{}
	if len(g.Entries) != len(w.Entries) {
		t.Fatalf("%d entries, reference %d, on %x", len(g.Entries), len(w.Entries), der)
	}
	g.Entries = append([]crl.Entry(nil), g.Entries...)
	w.Entries = append([]crl.Entry(nil), w.Entries...)
	for i := range g.Entries {
		sameTime(t, "revocationDate", g.Entries[i].RevokedAt, w.Entries[i].RevokedAt)
		g.Entries[i].RevokedAt, w.Entries[i].RevokedAt = time.Time{}, time.Time{}
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("fields differ on %x\nreader:    %+v\nreference: %+v", der, g, w)
	}
	return got, nil
}

// sameAsX509 fails t unless Parse's verdict and contents agree with
// crypto/x509's wherever crypto/x509 accepts der, apart from the decided
// differences.
func sameAsX509(t *testing.T, der []byte, got *crl.CRL, gotErr error) {
	t.Helper()
	rl, err := x509.ParseRevocationList(der)
	if err != nil {
		return
	}
	if why := x509Difference(der, rl); why != "" {
		if gotErr == nil {
			t.Fatalf("Parse accepts %x, which encoding/asn1 rejects (%s)", der, why)
		}
		return
	}
	if gotErr != nil {
		t.Fatalf("crypto/x509 accepts %x, Parse rejects it: %v", der, gotErr)
	}
	if !bytes.Equal(got.RawIssuer, rl.RawIssuer) {
		t.Fatalf("issuer %x, crypto/x509 %x", got.RawIssuer, rl.RawIssuer)
	}
	sameTime(t, "thisUpdate vs crypto/x509", got.ThisUpdate, rl.ThisUpdate)
	sameTime(t, "nextUpdate vs crypto/x509", got.NextUpdate, rl.NextUpdate)
	if (got.Number == nil) != (rl.Number == nil) || got.Number != nil && got.Number.Cmp(rl.Number) != 0 {
		t.Fatalf("number %v, crypto/x509 %v", got.Number, rl.Number)
	}
	if len(got.Entries) != len(rl.RevokedCertificateEntries) {
		t.Fatalf("%d entries, crypto/x509 %d", len(got.Entries), len(rl.RevokedCertificateEntries))
	}
	for i, e := range rl.RevokedCertificateEntries {
		g := got.Entries[i]
		reason := pkixutil.ReasonAbsent
		for _, ext := range e.Extensions {
			if ext.Id.Equal(pkixutil.OIDExtensionReasonCode) {
				reason = pkixutil.ReasonCode(e.ReasonCode)
			}
		}
		sameTime(t, "revocationDate vs crypto/x509", g.RevokedAt, e.RevocationTime)
		if g.Serial.Cmp(e.SerialNumber) != 0 || g.Reason != reason {
			t.Fatalf("entry %d: %v %v, crypto/x509 %v %v", i, g.Serial, g.Reason, e.SerialNumber, reason)
		}
	}
}

// x509Difference names the decided difference (DESIGN.md §17) for which
// encoding/asn1, and so Parse, rejects der although crypto/x509 accepted
// it as rl, or returns "" if there is none.
func x509Difference(der []byte, rl *x509.RevocationList) string {
	if len(rl.Raw) != len(der) {
		return "trailing data after the CertificateList"
	}
	var e pkixutil.Element
	var present bool
	if tail := tbsTail(rl); len(tail) > 0 && !tail.ReadOptionalExplicit(&e, &present, 0, pkixutil.TagSequence) {
		return "an element encoding/asn1 reads as an optional field of the TBSCertList"
	}
	for _, rce := range rl.RevokedCertificateEntries {
		for _, ext := range rce.Extensions {
			if _, err := parseReasonCodeExtension(ext.Value); ext.Id.Equal(pkixutil.OIDExtensionReasonCode) && err != nil {
				return "a reasonCode followed by more bytes, or outside int32"
			}
		}
		if tail := entryTail(rce.Raw); len(tail) > 0 && !tail.ReadOptionalElement(&e, &present, pkixutil.TagSequence) {
			return "an element encoding/asn1 reads as crlEntryExtensions"
		}
	}
	return ""
}

// tbsTail returns what crypto/x509 leaves unread of a TBSCertList it
// accepted, if encoding/asn1 still has a field to read there. After
// thisUpdate, crypto/x509 reads each optional field only when the next
// octet is that field's tag, and ignores the rest of the SEQUENCE.
func tbsTail(rl *x509.RevocationList) pkixutil.Input {
	in := pkixutil.Input(rl.RawTBSRevocationList)
	var tbs, e pkixutil.Element
	in.ReadElement(&tbs, pkixutil.TagSequence)
	s := tbs.Content
	for i := 0; i < 4; i++ { // version, signature, issuer, thisUpdate
		s.ReadElement(&e, pkixutil.AnyTag)
	}
	for _, tags := range []string{"\x17\x18", "\x30", "\xa0"} { // nextUpdate, revokedCertificates, crlExtensions
		if len(s) > 0 && bytes.IndexByte([]byte(tags), s[0]) >= 0 {
			s.ReadElement(&e, pkixutil.AnyTag)
			if tags == "\xa0" {
				return nil
			}
		}
	}
	return s
}

// entryTail is tbsTail for one revoked entry: after the serial and the
// revocation date, crlEntryExtensions is read only if the next octet is a
// SEQUENCE tag.
func entryTail(raw []byte) pkixutil.Input {
	in := pkixutil.Input(raw)
	var seq, e pkixutil.Element
	in.ReadElement(&seq, pkixutil.TagSequence)
	s := seq.Content
	s.ReadElement(&e, pkixutil.AnyTag)
	s.ReadElement(&e, pkixutil.AnyTag)
	if len(s) > 0 && s[0] == pkixutil.TagSequence {
		return nil
	}
	return s
}

// checkParse runs both checks on der.
func checkParse(t *testing.T, der []byte) {
	t.Helper()
	got, err := sameCRL(t, der)
	sameAsX509(t, der, got, err)
}

// FuzzParseCRL checks Parse against the encoding/asn1 reference and
// crypto/x509 (see above).
func FuzzParseCRL(f *testing.F) {
	for _, der := range tableOneCRLs(f) {
		f.Add(der)
	}
	for _, der := range stdlibCRLs(f) {
		f.Add(der)
	}
	for _, body := range malformedBodies(f) {
		f.Add(body)
	}
	for _, q := range parseQuirks {
		f.Add(q.der)
	}
	f.Fuzz(func(t *testing.T, der []byte) { checkParse(t, der) })
}

// tableOneCRLs returns every CRL that TestTable1Figure10Golden's Table 1
// world serves, fetched the way the §5.4 study fetches them.
func tableOneCRLs(t testing.TB) [][]byte {
	c, err := world.BuildConsistency(world.Config{Seed: 3, ConsistentCAs: 3, SerialsPerConsistentCA: 10, Table1Scale: 100})
	if err != nil {
		t.Fatal(err)
	}
	at := c.Config.Start.Add(6 * 24 * time.Hour)
	var out [][]byte
	for _, src := range c.Sources {
		req, err := http.NewRequest(http.MethodGet, src.CRLURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Network.Do(netsim.PaperVantages()[1], at, req)
		if err != nil || res.Status != http.StatusOK {
			t.Fatalf("fetch %s: %v %v", src.CRLURL, res, err)
		}
		out = append(out, res.Body)
	}
	return out
}

// stdlibCRLs returns CRLs made by x509.CreateRevocationList: empty, with
// reasons and without, and with a large number.
func stdlibCRLs(t testing.TB) [][]byte {
	ca := newCA(t)
	entry := func(serial int64, reason int) x509.RevocationListEntry {
		return x509.RevocationListEntry{SerialNumber: big.NewInt(serial), RevocationTime: thisUpdate.Add(-time.Hour), ReasonCode: reason}
	}
	var out [][]byte
	for _, tmpl := range []*x509.RevocationList{
		{Number: big.NewInt(1), ThisUpdate: thisUpdate, NextUpdate: nextUpdate},
		{Number: big.NewInt(55), ThisUpdate: thisUpdate, NextUpdate: nextUpdate,
			RevokedCertificateEntries: []x509.RevocationListEntry{entry(1234, 1), entry(-5, 0), entry(0, 10)}},
		{Number: new(big.Int).Lsh(big.NewInt(1), 150), ThisUpdate: time.Date(2050, 1, 1, 0, 0, 0, 0, time.UTC), NextUpdate: time.Date(2051, 1, 1, 0, 0, 0, 0, time.UTC),
			RevokedCertificateEntries: []x509.RevocationListEntry{entry(7, 0), entry(8, 4)}},
	} {
		der, err := x509.CreateRevocationList(nil, tmpl, ca.Certificate, ca.Key)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, der)
	}
	return out
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

// Hand-built DER for the quirk seeds. tlv wraps the concatenated parts in
// one element.
func tlv(tag byte, parts ...[]byte) []byte {
	return pkixutil.AppendElement(nil, tag, bytes.Join(parts, nil))
}

var (
	ecdsaSHA256 = tlv(pkixutil.TagSequence, tlv(pkixutil.TagOID, []byte{0x2a, 0x86, 0x48, 0xce, 0x3d, 0x04, 0x03, 0x02}))
	issuerName  = tlv(pkixutil.TagSequence, tlv(0x31, tlv(pkixutil.TagSequence, tlv(pkixutil.TagOID, []byte{0x55, 0x04, 0x03}), tlv(0x0c, []byte("Quirk CA")))))
	utcTime     = tlv(pkixutil.TagUTCTime, []byte("180501000000Z"))
	v2          = []byte{pkixutil.TagInteger, 1, 1}
)

// listDER wraps TBSCertList fields after the version in a CertificateList
// whose signature is four arbitrary bytes; tail follows the signature.
func listDER(tbsFields [][]byte, tail ...[]byte) []byte {
	tbs := tlv(pkixutil.TagSequence, append([][]byte{v2, ecdsaSHA256, issuerName}, tbsFields...)...)
	return tlv(pkixutil.TagSequence, append([][]byte{tbs, ecdsaSHA256, {pkixutil.TagBitString, 5, 0, 1, 2, 3, 4}}, tail...)...)
}

// entriesDER is a revokedCertificates list of the given entries.
func entriesDER(entries ...[]byte) []byte { return tlv(pkixutil.TagSequence, entries...) }

// entryDER is serial 7 revoked at utcTime, followed by fields.
func entryDER(fields ...[]byte) []byte {
	return tlv(pkixutil.TagSequence, append([][]byte{{pkixutil.TagInteger, 1, 7}, utcTime}, fields...)...)
}

// extensionsDER is an Extensions list of one extension with the given
// DER extnID and extnValue contents.
func extensionsDER(oid, value []byte) []byte {
	return tlv(pkixutil.TagSequence, tlv(pkixutil.TagSequence, oid, tlv(pkixutil.TagOctetString, value)))
}

// parseQuirks holds one input per encoding/asn1 behaviour the reader
// keeps and per decided difference from crypto/x509, with the verdict of
// each parser. Each is also a fuzz seed.
var parseQuirks = []struct {
	name         string
	der          []byte
	accept, x509 bool
}{
	// A CRL number may be followed by anything.
	{"number-trailing-bytes", listDER([][]byte{utcTime,
		tlv(pkixutil.TagContextExplicit|0, extensionsDER(pkixutil.OIDExtensionCRLNumberDER, []byte{pkixutil.TagInteger, 1, 9, 0xde, 0xad}))}), true, true},
	// A reasonCode may not; crypto/x509 ignores the bytes.
	{"reason-trailing-bytes", listDER([][]byte{utcTime, entriesDER(entryDER(
		extensionsDER(pkixutil.OIDExtensionReasonCodeDER, []byte{pkixutil.TagEnumerated, 1, 1, 0x00})))}), false, true},
	// A reasonCode must fit an int32; crypto/x509 takes an int.
	{"reason-beyond-int32", listDER([][]byte{utcTime, entriesDER(entryDER(
		extensionsDER(pkixutil.OIDExtensionReasonCodeDER, []byte{pkixutil.TagEnumerated, 5, 1, 0, 0, 0, 0})))}), false, true},

	// Every Time takes a UTCTime or a GeneralizedTime; a GeneralizedTime
	// may carry a fraction, which crypto/x509 rejects.
	{"generalized-this-update", listDER([][]byte{tlv(pkixutil.TagGeneralizedTime, []byte("20180501000000Z"))}), true, true},
	{"generalized-fraction", listDER([][]byte{tlv(pkixutil.TagGeneralizedTime, []byte("20180501000000.5Z"))}), true, false},
	{"utctime-offset-entry", listDER([][]byte{utcTime, utcTime, entriesDER(tlv(pkixutil.TagSequence,
		[]byte{pkixutil.TagInteger, 1, 7}, tlv(pkixutil.TagUTCTime, []byte("1805010000+0130"))))}), true, true},

	// The elements after the last field of a SEQUENCE are ignored.
	{"tbs-trailing-elements", listDER([][]byte{utcTime, utcTime, entriesDER(entryDER()),
		tlv(pkixutil.TagContextExplicit|0, extensionsDER(pkixutil.OIDExtensionCRLNumberDER, []byte{pkixutil.TagInteger, 1, 9})),
		{0x05, 0x00}, {0x05, 0x00}}), true, true},
	{"list-trailing-elements", listDER([][]byte{utcTime}, []byte{0x05, 0x00}), true, true},
	{"entry-trailing-elements", listDER([][]byte{utcTime, entriesDER(entryDER(tlv(pkixutil.TagSequence), []byte{0x05, 0x00}))}), true, true},

	// Decided differences: crypto/x509 ignores what follows the
	// CertificateList, and reads an optional field only when the next
	// octet is its tag; encoding/asn1 reads the element's header, and an
	// explicit field's header may not end the SEQUENCE.
	{"trailing-data", append(listDER([][]byte{utcTime}), 0x05, 0x00), false, true},
	{"tbs-unreadable-header", listDER([][]byte{utcTime, {0x1f, 0x02, 0x00}}), false, true},
	{"tbs-header-ends-list", listDER([][]byte{utcTime, {0x05, 0x00}}), false, true},
	{"entry-unreadable-header", listDER([][]byte{utcTime, entriesDER(entryDER([]byte{0x04, 0x80, 0x00, 0x00}))}), false, true},
}

// TestParseQuirks pins each quirk's verdict on both parsers and on
// crypto/x509, and checks the two parsers agree on its fields.
func TestParseQuirks(t *testing.T) {
	for _, q := range parseQuirks {
		t.Run(q.name, func(t *testing.T) {
			if _, err := referenceParse(q.der); (err == nil) != q.accept {
				t.Errorf("accepted = %v, want %v (%v)", err == nil, q.accept, err)
			}
			if _, err := x509.ParseRevocationList(q.der); (err == nil) != q.x509 {
				t.Errorf("crypto/x509 accepted = %v, want %v (%v)", err == nil, q.x509, err)
			}
			checkParse(t, q.der)
		})
	}
}

// Years on both sides of the UTCTime range and at the end of the
// GeneralizedTime one; 10000 is an error.
var testYears = []int{1949, 1950, 2018, 2049, 2050, 9999}

func randomTime(rng *rand.Rand) time.Time {
	year := testYears[rng.Intn(len(testYears))]
	if rng.Intn(40) == 0 {
		year = 10000
	}
	t := time.Date(year, time.Month(1+rng.Intn(12)), 1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60), rng.Intn(2)*rng.Intn(1e9), time.UTC)
	if rng.Intn(4) == 0 {
		t = t.In(time.FixedZone("skewed", (rng.Intn(27)-13)*3600))
	}
	return t
}

// randomInt draws zero, small and wide integers of either sign.
func randomInt(rng *rand.Rand) *big.Int {
	x := new(big.Int)
	switch rng.Intn(4) {
	case 0:
		x.SetInt64(int64(rng.Intn(3)))
	case 1:
		x.SetInt64(int64(rng.Intn(512)) - 256)
	default:
		b := make([]byte, 1+rng.Intn(20))
		rng.Read(b)
		x.SetBytes(b)
	}
	if rng.Intn(3) == 0 {
		x.Neg(x)
	}
	return x
}

// randomReason draws an absent reason, each RFC 5280 reason, and values
// outside 0–10, some beyond int32.
func randomReason(rng *rand.Rand) pkixutil.ReasonCode {
	if rng.Intn(2) == 0 {
		return pkixutil.ReasonAbsent
	}
	if rng.Intn(3) > 0 {
		return pkixutil.ReasonCode(rng.Intn(11))
	}
	return []pkixutil.ReasonCode{-2, 11, 127, 128, 255, 1 << 31, -1<<31 - 1, 1 << 40}[rng.Intn(8)]
}

// randomList draws a CRL with up to four entries, duplicate serials
// included, and a nil or present number.
func randomList(rng *rand.Rand) *crl.CRL {
	list := &crl.CRL{ThisUpdate: randomTime(rng)}
	if rng.Intn(3) > 0 {
		list.NextUpdate = randomTime(rng)
	}
	if rng.Intn(2) == 0 {
		list.Number = randomInt(rng)
	}
	for i := rng.Intn(5); i > 0; i-- {
		list.Entries = append(list.Entries, crl.Entry{Serial: randomInt(rng), RevokedAt: randomTime(rng), Reason: randomReason(rng)})
	}
	return list
}

// createBoth runs Create and the reference on list and fails t unless
// they give the same bytes or both fail.
func createBoth(t *testing.T, ca *pki.CA, list *crl.CRL, seed int64) ([]byte, error) {
	t.Helper()
	got, gotErr := crl.Create(ca.Certificate, ca.Key, list, crl.CreateOptions{Rand: rand.New(rand.NewSource(seed))})
	want, wantErr := referenceCreate(ca.Certificate, ca.Key, list, crl.CreateOptions{Rand: rand.New(rand.NewSource(seed))})
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("Create differs from the reference on %+v\nwriter:    %x %v\nreference: %x %v", list, got, gotErr, want, wantErr)
	}
	if gotErr == nil && cap(got) != len(got) {
		t.Fatalf("CRL has capacity %d for %d bytes, want exact size", cap(got), len(got))
	}
	return got, gotErr
}

// TestCreateMatchesReference compares Create with the reference on
// seeded random lists, an RSA issuer, and the errors: a nil serial and a
// year above 9999.
func TestCreateMatchesReference(t *testing.T) {
	ca := newCA(t)
	rng := rand.New(rand.NewSource(1))
	failed := 0
	for i := 0; i < 400; i++ {
		if _, err := createBoth(t, ca, randomList(rng), int64(i)); err != nil {
			failed++
		}
	}
	if failed == 0 || failed > 200 {
		t.Errorf("%d of 400 random lists failed to encode; want some, not most", failed)
	}

	rsaCA, err := pki.NewRootCA(pki.Config{Name: "RSA CRL Root", KeyAlgorithm: pki.RSA2048})
	if err != nil {
		t.Fatal(err)
	}
	list := &crl.CRL{ThisUpdate: thisUpdate, NextUpdate: nextUpdate, Number: big.NewInt(3),
		Entries: []crl.Entry{{Serial: big.NewInt(9), RevokedAt: thisUpdate, Reason: pkixutil.ReasonKeyCompromise}}}
	if _, err := createBoth(t, rsaCA, list, 1); err != nil {
		t.Fatal(err)
	}

	far := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, c := range []struct {
		name    string
		list    *crl.CRL
		wantErr bool
	}{
		{"nil serial", &crl.CRL{ThisUpdate: thisUpdate, Entries: []crl.Entry{{RevokedAt: thisUpdate}}}, true},
		{"far thisUpdate", &crl.CRL{ThisUpdate: far}, true},
		{"far nextUpdate", &crl.CRL{ThisUpdate: thisUpdate, NextUpdate: far}, true},
		{"far revocation", &crl.CRL{ThisUpdate: thisUpdate, Entries: []crl.Entry{{Serial: big.NewInt(1), RevokedAt: far}}}, true},
		{"zero thisUpdate", &crl.CRL{NextUpdate: nextUpdate}, true},
		{"nextUpdate truncating to zero", &crl.CRL{ThisUpdate: thisUpdate, NextUpdate: time.Date(1, 1, 1, 0, 0, 0, 5, time.UTC)}, false},
		{"negative number", &crl.CRL{ThisUpdate: thisUpdate, Number: big.NewInt(-129)}, false},
		{"duplicate serial", &crl.CRL{ThisUpdate: thisUpdate, Entries: []crl.Entry{
			{Serial: big.NewInt(1), RevokedAt: thisUpdate}, {Serial: big.NewInt(1), RevokedAt: nextUpdate, Reason: 1}}}, false},
	} {
		if _, err := createBoth(t, ca, c.list, 1); (err != nil) != c.wantErr {
			t.Errorf("%s: error %v, want one: %v", c.name, err, c.wantErr)
		}
	}
}

// TestParseMatchesReference parses random lists, and every truncation
// and several byte flips of each, with Parse, the reference and
// crypto/x509.
func TestParseMatchesReference(t *testing.T) {
	ca := newCA(t)
	rng := rand.New(rand.NewSource(2))
	for n := 0; n < 40; {
		der, err := createBoth(t, ca, randomList(rng), int64(n))
		if err != nil {
			continue
		}
		n++
		checkParse(t, der)
		for i := range der {
			checkParse(t, der[:i])
			for _, x := range []byte{0x01, 0x80, 0xff} {
				flipped := bytes.Clone(der)
				flipped[i] ^= x
				checkParse(t, flipped)
			}
		}
	}
}
