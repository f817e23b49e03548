package responder

import (
	"bytes"
	"context"
	"crypto"
	"crypto/x509"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/crl"
	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

var t0 = time.Date(2018, 4, 25, 0, 0, 0, 0, time.UTC)

type fixture struct {
	ca   *pki.CA
	db   *DB
	clk  *clock.Simulated
	leaf *pki.Leaf
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	ca, err := pki.NewRootCA(pki.Config{Name: "Responder Test CA", OCSPURL: "http://ocsp.resp.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"resp.test"}, NotBefore: t0.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	db.AddIssued(leaf.Certificate.SerialNumber, leaf.Certificate.NotAfter)
	return &fixture{ca: ca, db: db, clk: clock.NewSimulated(t0), leaf: leaf}
}

func (f *fixture) responder(p Profile) *Responder {
	return New("ocsp.resp.test", f.ca, f.db, f.clk, p)
}

func (f *fixture) request(t testing.TB) ([]byte, ocsp.CertID) {
	t.Helper()
	req, err := ocsp.NewRequest(f.leaf.Certificate, f.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	der, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return der, req.CertIDs[0]
}

func mustParse(t testing.TB, der []byte) *ocsp.Response {
	t.Helper()
	resp, err := ocsp.ParseResponse(der)
	if err != nil {
		t.Fatalf("ParseResponse: %v", err)
	}
	return resp
}

func TestGoodResponse(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{})
	reqDER, id := f.request(t)
	der, ok := respondDER(r, reqDER)
	if !ok {
		t.Fatal("well-behaved responder returned a malformed body")
	}
	resp := mustParse(t, der)
	if resp.Status != ocsp.StatusSuccessful {
		t.Fatalf("status = %v", resp.Status)
	}
	single := resp.Find(id)
	if single == nil || single.Status != ocsp.Good {
		t.Fatalf("single = %+v, want good", single)
	}
	if err := resp.CheckSignatureFrom(f.ca.Certificate); err != nil {
		t.Errorf("signature: %v", err)
	}
	// Default margin: thisUpdate backdated by 1 hour.
	if got := t0.Sub(single.ThisUpdate); got != time.Hour {
		t.Errorf("thisUpdate margin = %v, want 1h", got)
	}
	// Default validity: 7 days.
	if got := single.NextUpdate.Sub(single.ThisUpdate); got != 7*24*time.Hour {
		t.Errorf("validity = %v, want 168h", got)
	}
}

func TestRevokedResponse(t *testing.T) {
	f := newFixture(t)
	revokedAt := t0.Add(-24 * time.Hour)
	f.db.Revoke(f.leaf.Certificate.SerialNumber, revokedAt, pkixutil.ReasonKeyCompromise)
	r := f.responder(Profile{})
	reqDER, id := f.request(t)
	der, _ := respondDER(r, reqDER)
	resp := mustParse(t, der)
	single := resp.Find(id)
	if single.Status != ocsp.Revoked {
		t.Fatalf("status = %v, want revoked", single.Status)
	}
	if !single.RevokedAt.Equal(revokedAt) {
		t.Errorf("revokedAt = %v, want %v", single.RevokedAt, revokedAt)
	}
	if single.Reason != pkixutil.ReasonKeyCompromise {
		t.Errorf("reason = %v", single.Reason)
	}
}

func TestUnknownSerial(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{})
	req, err := ocsp.NewRequestForSerial(big.NewInt(424242), f.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, _ := req.Marshal()
	der, _ := respondDER(r, reqDER)
	resp := mustParse(t, der)
	if resp.Responses[0].Status != ocsp.Unknown {
		t.Errorf("status = %v, want unknown for unissued serial", resp.Responses[0].Status)
	}
}

func TestWrongIssuerGetsUnknown(t *testing.T) {
	f := newFixture(t)
	other, err := pki.NewRootCA(pki.Config{Name: "Unrelated CA"})
	if err != nil {
		t.Fatal(err)
	}
	r := f.responder(Profile{})
	req, err := ocsp.NewRequestForSerial(big.NewInt(1), other.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	reqDER, _ := req.Marshal()
	der, _ := respondDER(r, reqDER)
	resp := mustParse(t, der)
	if resp.Responses[0].Status != ocsp.Unknown {
		t.Errorf("status = %v, want unknown for foreign issuer", resp.Responses[0].Status)
	}
}

func TestMalformedProfiles(t *testing.T) {
	f := newFixture(t)
	reqDER, _ := f.request(t)
	cases := map[MalformedKind][]byte{
		MalformedZero:       []byte("0"),
		MalformedEmpty:      {},
		MalformedJavaScript: nil, // content checked by parse failure only
		MalformedTruncated:  nil,
	}
	for kind, wantBody := range cases {
		r := f.responder(Profile{Malformed: kind})
		body, ok := respondDER(r, reqDER)
		if ok {
			t.Errorf("%v: expected malformed flag", kind)
		}
		if wantBody != nil && !bytes.Equal(body, wantBody) {
			t.Errorf("%v: body = %q", kind, body)
		}
		if _, err := ocsp.ParseResponse(body); err == nil {
			t.Errorf("%v: body should not parse as OCSP", kind)
		}
	}
}

func TestMalformedWindowed(t *testing.T) {
	// The sheca.com episode: correct responses, then 6 hours of "0",
	// then correct again (§5.3).
	f := newFixture(t)
	outage := Window{From: t0.Add(96 * time.Hour), To: t0.Add(102 * time.Hour)}
	r := f.responder(Profile{Malformed: MalformedZero, MalformedWindows: []Window{outage}})
	reqDER, _ := f.request(t)

	if _, ok := respondDER(r, reqDER); !ok {
		t.Error("before window: response should be well-formed")
	}
	f.clk.Set(t0.Add(98 * time.Hour))
	if body, ok := respondDER(r, reqDER); ok || string(body) != "0" {
		t.Errorf("inside window: want \"0\" body, got ok=%v body=%q", ok, body)
	}
	f.clk.Set(t0.Add(103 * time.Hour))
	if _, ok := respondDER(r, reqDER); !ok {
		t.Error("after window: response should be well-formed again")
	}
}

func TestSerialMismatchProfile(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{SerialMismatch: true})
	reqDER, id := f.request(t)
	der, _ := respondDER(r, reqDER)
	resp := mustParse(t, der)
	if resp.Find(id) != nil {
		t.Error("mismatching responder should not cover the requested serial")
	}
	if !resp.Responses[0].CertID.SameIssuer(id) {
		t.Error("mismatch keeps the issuer hashes")
	}
}

func TestBadSignatureProfile(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{BadSignature: true})
	reqDER, _ := f.request(t)
	der, ok := respondDER(r, reqDER)
	if !ok {
		t.Fatal("bad-signature responses must still be structurally valid")
	}
	resp := mustParse(t, der) // must parse!
	if err := resp.CheckSignatureFrom(f.ca.Certificate); err == nil {
		t.Error("signature should fail validation")
	}
}

func TestBlankNextUpdateProfile(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{BlankNextUpdate: true})
	reqDER, id := f.request(t)
	der, _ := respondDER(r, reqDER)
	resp := mustParse(t, der)
	if resp.Find(id).HasNextUpdate() {
		t.Error("nextUpdate should be blank")
	}
}

func TestThisUpdateOffsets(t *testing.T) {
	f := newFixture(t)
	reqDER, id := f.request(t)

	// Zero margin: thisUpdate == request time (17.2% of responders).
	r := f.responder(Profile{NoDefaultMargin: true})
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	if !resp.Find(id).ThisUpdate.Equal(t0) {
		t.Errorf("zero-margin thisUpdate = %v, want %v", resp.Find(id).ThisUpdate, t0)
	}

	// Future thisUpdate (3% of responders): response not yet valid.
	r = f.responder(Profile{ThisUpdateOffset: -30 * time.Minute, NoDefaultMargin: true})
	resp = mustParse(t, firstBody(respondDER(r, reqDER)))
	single := resp.Find(id)
	if !single.ThisUpdate.After(t0) {
		t.Errorf("future thisUpdate = %v, want after %v", single.ThisUpdate, t0)
	}
	if single.ValidAt(t0) {
		t.Error("future-thisUpdate response must not validate now")
	}
}

func TestHugeValidity(t *testing.T) {
	// The 1,251-day validity period of Figure 8.
	f := newFixture(t)
	v := 1251 * 24 * time.Hour
	r := f.responder(Profile{Validity: v})
	reqDER, id := f.request(t)
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	single := resp.Find(id)
	if got := single.NextUpdate.Sub(single.ThisUpdate); got != v {
		t.Errorf("validity = %v, want %v", got, v)
	}
}

func TestExtraSerials(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{ExtraSerials: 19})
	reqDER, id := f.request(t)
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	if len(resp.Responses) != 20 {
		t.Fatalf("responses = %d, want 20", len(resp.Responses))
	}
	if resp.Find(id) == nil {
		t.Error("requested serial must still be covered")
	}
}

func TestSuperfluousCerts(t *testing.T) {
	f := newFixture(t)
	extra := []*x509.Certificate{f.ca.Certificate, f.leaf.Certificate}
	r := f.responder(Profile{SuperfluousCerts: extra})
	reqDER, _ := f.request(t)
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	if len(resp.Certificates) != 2 {
		t.Errorf("embedded certs = %d, want 2", len(resp.Certificates))
	}
	// Still verifiable (direct CA signature).
	if err := resp.CheckSignatureFrom(f.ca.Certificate); err != nil {
		t.Errorf("signature: %v", err)
	}
}

func TestErrorStatusProfile(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{ErrorStatus: ocsp.StatusTryLater})
	reqDER, _ := f.request(t)
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	if resp.Status != ocsp.StatusTryLater {
		t.Errorf("status = %v, want tryLater", resp.Status)
	}
}

func TestMalformedRequestGetsErrorResponse(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{})
	der, ok := respondDER(r, []byte("junk"))
	if !ok {
		t.Fatal("error response should be well-formed DER")
	}
	resp := mustParse(t, der)
	if resp.Status != ocsp.StatusMalformedRequest {
		t.Errorf("status = %v, want malformedRequest", resp.Status)
	}
}

func TestCachedResponses(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{CacheResponses: true, Validity: 4 * time.Hour, UpdateInterval: 2 * time.Hour})
	reqDER, id := f.request(t)

	f.clk.Set(t0.Add(10 * time.Minute))
	a := mustParse(t, firstBody(respondDER(r, reqDER)))
	f.clk.Set(t0.Add(70 * time.Minute))
	b := mustParse(t, firstBody(respondDER(r, reqDER)))
	// Same update window: identical bytes, identical producedAt.
	if !bytes.Equal(a.Raw, b.Raw) {
		t.Error("same-window cached responses should be byte-identical")
	}
	if !a.ProducedAt.Equal(b.ProducedAt) {
		t.Error("producedAt should be stable within a window")
	}
	// producedAt is the window start, well before receipt time — the
	// signal the paper uses to classify responders as not-on-demand.
	if got := f.clk.Now().Sub(a.ProducedAt); got < 2*time.Minute {
		t.Errorf("cached producedAt should lag receipt, lag = %v", got)
	}

	// Next window: fresh response.
	f.clk.Set(t0.Add(2*time.Hour + time.Minute))
	c := mustParse(t, firstBody(respondDER(r, reqDER)))
	if c.ProducedAt.Equal(a.ProducedAt) {
		t.Error("new window should produce a new response")
	}
	if !c.Find(id).ThisUpdate.After(a.Find(id).ThisUpdate) {
		t.Error("new window should advance thisUpdate")
	}
}

func TestOnDemandResponses(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{})
	reqDER, _ := f.request(t)
	a := mustParse(t, firstBody(respondDER(r, reqDER)))
	f.clk.Advance(time.Minute)
	b := mustParse(t, firstBody(respondDER(r, reqDER)))
	if !b.ProducedAt.After(a.ProducedAt) {
		t.Error("on-demand producedAt should track the clock")
	}
	if !a.ProducedAt.Equal(t0) {
		t.Errorf("on-demand producedAt = %v, want %v", a.ProducedAt, t0)
	}
}

func TestMultiInstanceSkew(t *testing.T) {
	f := newFixture(t)
	r := f.responder(Profile{
		CacheResponses: true,
		Validity:       4 * time.Hour,
		UpdateInterval: 2 * time.Hour,
		Instances:      4,
		InstanceSkew:   3 * time.Minute,
	})
	reqDER, _ := f.request(t)
	seen := make(map[time.Time]bool)
	for i := 0; i < 40; i++ {
		f.clk.Advance(time.Minute)
		resp := mustParse(t, firstBody(respondDER(r, reqDER)))
		seen[resp.ProducedAt] = true
	}
	if len(seen) < 2 {
		t.Errorf("multi-instance farm should expose skewed producedAt values, saw %d distinct", len(seen))
	}
}

func TestStatusOverrides(t *testing.T) {
	// Table 1: responders that say Good or Unknown for CRL-revoked
	// serials.
	f := newFixture(t)
	serial := f.leaf.Certificate.SerialNumber
	f.db.Revoke(serial, t0.Add(-time.Hour), pkixutil.ReasonAbsent)
	r := f.responder(Profile{StatusOverrides: map[string]ocsp.CertStatus{serial.String(): ocsp.Good}})
	reqDER, id := f.request(t)
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	if resp.Find(id).Status != ocsp.Good {
		t.Errorf("override should force Good, got %v", resp.Find(id).Status)
	}
}

func TestRevocationTimeSkewAndReasonDrop(t *testing.T) {
	f := newFixture(t)
	serial := f.leaf.Certificate.SerialNumber
	revokedAt := t0.Add(-10 * time.Hour)
	f.db.Revoke(serial, revokedAt, pkixutil.ReasonKeyCompromise)
	skew := 9 * time.Hour // msocsp-style lag
	r := f.responder(Profile{RevocationTimeSkew: skew, DropReasonCodes: true})
	reqDER, id := f.request(t)
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	single := resp.Find(id)
	if !single.RevokedAt.Equal(revokedAt.Add(skew)) {
		t.Errorf("revokedAt = %v, want %v", single.RevokedAt, revokedAt.Add(skew))
	}
	if single.Reason != pkixutil.ReasonAbsent {
		t.Errorf("reason should be dropped, got %v", single.Reason)
	}
}

func TestDelegatedResponder(t *testing.T) {
	f := newFixture(t)
	delegate, err := f.ca.IssueOCSPResponderCert("Delegated", time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	r := f.responder(Profile{})
	r.Signer = delegate.Key
	r.SignerCert = delegate.Certificate
	reqDER, _ := f.request(t)
	resp := mustParse(t, firstBody(respondDER(r, reqDER)))
	if len(resp.Certificates) == 0 {
		t.Fatal("delegated responder must embed its certificate")
	}
	if err := resp.CheckSignatureFrom(f.ca.Certificate); err != nil {
		t.Errorf("delegated signature: %v", err)
	}
}

func TestCRLPublisher(t *testing.T) {
	f := newFixture(t)
	serial := f.leaf.Certificate.SerialNumber
	f.db.Revoke(serial, t0.Add(-time.Hour), pkixutil.ReasonSuperseded)
	pub := NewCRLPublisher(f.ca, f.db, f.clk)
	der, err := pub.Current()
	if err != nil {
		t.Fatal(err)
	}
	list, err := crl.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	if err := list.CheckSignatureFrom(f.ca.Certificate); err != nil {
		t.Errorf("CRL signature: %v", err)
	}
	e := findEntry(list, serial)
	if e == nil {
		t.Fatal("revoked serial missing from CRL")
	}
	if e.Reason != pkixutil.ReasonSuperseded {
		t.Errorf("reason = %v", e.Reason)
	}
	if now := f.clk.Now(); now.Before(list.ThisUpdate) || now.After(list.NextUpdate) {
		t.Errorf("fresh CRL [%v, %v] should be valid now (%v)", list.ThisUpdate, list.NextUpdate, now)
	}

	// Same window → same bytes; new window → new CRL number.
	der2, _ := pub.Current()
	if !bytes.Equal(der, der2) {
		t.Error("same-window CRL should be cached")
	}
	f.clk.Advance(pub.validity()) // beyond the update interval
	der3, _ := pub.Current()
	list3, err := crl.Parse(der3)
	if err != nil {
		t.Fatal(err)
	}
	if list3.Number.Cmp(list.Number) <= 0 {
		t.Error("CRL number should increase across windows")
	}
}

func TestCRLPublisherPruneExpired(t *testing.T) {
	f := newFixture(t)
	expired, err := f.ca.IssueLeaf(pki.LeafOptions{
		DNSNames:  []string{"expired.test"},
		NotBefore: t0.AddDate(-1, 0, 0),
		NotAfter:  t0.AddDate(0, -6, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	f.db.AddIssued(expired.Certificate.SerialNumber, expired.Certificate.NotAfter)
	f.db.Revoke(expired.Certificate.SerialNumber, t0.AddDate(0, -7, 0), pkixutil.ReasonAbsent)
	f.db.Revoke(f.leaf.Certificate.SerialNumber, t0.Add(-time.Hour), pkixutil.ReasonAbsent)

	pub := NewCRLPublisher(f.ca, f.db, f.clk)
	pub.PruneExpired = true
	der, err := pub.Current()
	if err != nil {
		t.Fatal(err)
	}
	list, err := crl.Parse(der)
	if err != nil {
		t.Fatal(err)
	}
	if findEntry(list, expired.Certificate.SerialNumber) != nil {
		t.Error("expired revoked cert should be pruned from the CRL")
	}
	if findEntry(list, f.leaf.Certificate.SerialNumber) == nil {
		t.Error("unexpired revoked cert must remain")
	}
}

// findEntry returns list's entry for serial, or nil.
func findEntry(list *crl.CRL, serial *big.Int) *crl.Entry {
	for i := range list.Entries {
		if list.Entries[i].Serial.Cmp(serial) == 0 {
			return &list.Entries[i]
		}
	}
	return nil
}

func TestCRLServeHTTP(t *testing.T) {
	f := newFixture(t)
	pub := NewCRLPublisher(f.ca, f.db, f.clk)
	srv := httptest.NewServer(pub)
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.Header.Get("Content-Type") != "application/pkix-crl" {
		t.Errorf("content type %q", resp.Header.Get("Content-Type"))
	}
	if _, err := crl.Parse(body); err != nil {
		t.Errorf("served CRL does not parse: %v", err)
	}
}

func TestDBRevokedEntriesSorted(t *testing.T) {
	db := NewDB()
	for _, s := range []int64{30, 10, 20} {
		db.AddIssued(big.NewInt(s), t0.AddDate(1, 0, 0))
		db.Revoke(big.NewInt(s), t0, pkixutil.ReasonAbsent)
	}
	got := db.RevokedEntries()
	if len(got) != 3 || got[0].Serial.Int64() != 10 || got[2].Serial.Int64() != 30 {
		t.Errorf("entries not sorted: %+v", got)
	}
	// Revoking an unknown serial is a no-op.
	db.Revoke(big.NewInt(999), t0, pkixutil.ReasonAbsent)
	if len(db.RevokedEntries()) != 3 {
		t.Error("revoking unknown serial should be ignored")
	}
	if got := db.Serials(); len(got) != 3 || got[0].Int64() != 10 {
		t.Errorf("Serials = %v", got)
	}
}

func firstBody(b []byte, _ bool) []byte { return b }

func readAll(t testing.TB, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServingEpoch(t *testing.T) {
	f := newFixture(t)
	r := f.responder(NewProfile(WithValidity(24*time.Hour), WithCachedResponses(12*time.Hour)))
	// The responder phases its windows per host, so anchor safely inside
	// one: a second past the start of the window containing t0.
	now := r.windowStart(f.clk.Now()).Add(time.Second)

	win1, gen1 := r.ServingEpoch(now)
	win2, gen2 := r.ServingEpoch(now.Add(time.Minute))
	if win1 != win2 || gen1 != gen2 {
		t.Error("epoch changed within one update window")
	}
	// Crossing a window boundary changes the window half of the epoch.
	win3, _ := r.ServingEpoch(now.Add(13 * time.Hour))
	if win3 == win1 {
		t.Error("epoch window did not advance across an update boundary")
	}
	// A database write (revocation) bumps the generation half.
	f.db.Revoke(f.leaf.Certificate.SerialNumber, now, 1)
	_, gen3 := r.ServingEpoch(now)
	if gen3 == gen1 {
		t.Error("epoch generation did not advance on revocation")
	}

	// An uncached responder's window moves with every instant: no two
	// calls may share an epoch, so nothing gets memoized against it.
	u := f.responder(NewProfile(WithValidity(24 * time.Hour)))
	uw1, _ := u.ServingEpoch(now)
	uw2, _ := u.ServingEpoch(now.Add(time.Nanosecond))
	if uw1 == uw2 {
		t.Error("uncached responder reused a serving epoch")
	}
}

func TestFastServeEligible(t *testing.T) {
	f := newFixture(t)
	cached := NewProfile(WithValidity(24*time.Hour), WithCachedResponses(12*time.Hour))
	if !f.responder(cached).FastServeEligible() {
		t.Error("window-cached single-instance responder must be eligible")
	}
	cases := map[string]*Responder{
		"uncached":   f.responder(NewProfile(WithValidity(24 * time.Hour))),
		"on-demand":  New("ocsp.resp.test", f.ca, f.db, f.clk, cached, WithOnDemandSigning()),
		"farm":       f.responder(NewProfile(WithValidity(24*time.Hour), WithCachedResponses(12*time.Hour), WithInstances(3, time.Hour))),
		"malformed":  f.responder(NewProfile(WithValidity(24*time.Hour), WithCachedResponses(12*time.Hour), WithMalformed(MalformedTruncated))),
		"error-stat": f.responder(NewProfile(WithValidity(24*time.Hour), WithCachedResponses(12*time.Hour), WithErrorStatus(ocsp.StatusTryLater))),
	}
	for name, r := range cases {
		if r.FastServeEligible() {
			t.Errorf("%s responder must not be fast-serve eligible", name)
		}
	}
}

// respondDER adapts context-first Respond to the historical (body, ok)
// shape the tests assert against; ok is false when the body is a
// profile-injected malformed blob.
func respondDER(r *Responder, reqDER []byte) ([]byte, bool) {
	res, err := r.Respond(context.Background(), reqDER)
	if err != nil {
		return nil, false
	}
	return res.DER, !res.Malformed
}
