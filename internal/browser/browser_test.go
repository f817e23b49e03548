package browser

import (
	"crypto"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

var t0 = time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)

func TestTable2BehaviorCatalog(t *testing.T) {
	bs := Table2Behaviors()
	if len(bs) != 16 {
		t.Fatalf("behaviors = %d, want 16", len(bs))
	}
	respecting := 0
	for _, b := range bs {
		if !b.RequestsStaple {
			t.Errorf("%s: every Table 2 browser requests stapled responses", b)
		}
		if b.FallsBackToOCSP {
			t.Errorf("%s: no Table 2 browser falls back to its own OCSP request", b)
		}
		if b.RespectsMustStaple {
			respecting++
			if b.Name != "Firefox 60" && b.Name != "Firefox" {
				t.Errorf("%s: only Firefox respects Must-Staple", b)
			}
			if b.Mobile && b.OS != "Android" {
				t.Errorf("%s: mobile Firefox only respects it on Android", b)
			}
		}
	}
	// Firefox 60 on three desktop OSes + Firefox on Android.
	if respecting != 4 {
		t.Errorf("respecting configurations = %d, want 4", respecting)
	}
}

func TestRunTable2Matrix(t *testing.T) {
	h, err := NewHarness(t0)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := h.RunTable2(Table2Behaviors())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 16 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if !row.RequestsStaple {
			t.Errorf("%s: should receive a staple when the server staples", row.Behavior)
		}
		if row.RespectsMustStaple != row.Behavior.RespectsMustStaple {
			t.Errorf("%s: measured respect=%v, behavior says %v", row.Behavior, row.RespectsMustStaple, row.Behavior.RespectsMustStaple)
		}
		if row.SendsOwnOCSP {
			t.Errorf("%s: no browser should make its own OCSP request", row.Behavior)
		}
	}
	if h.OCSPLookups() != 0 {
		t.Errorf("responder saw %d direct lookups, want 0", h.OCSPLookups())
	}
}

func TestFallbackBrowserWouldQueryOCSP(t *testing.T) {
	// A hypothetical browser that soft-fails but checks OCSP itself —
	// the harness must be able to observe the difference.
	h, err := NewHarness(t0)
	if err != nil {
		t.Fatal(err)
	}
	b := Behavior{Name: "Hypothetical", OS: "Any", RequestsStaple: true, FallsBackToOCSP: true}
	res, err := h.connect(b, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || !res.SentOwnOCSP {
		t.Errorf("result = %+v, want accepted with own OCSP request", res)
	}
	if h.OCSPLookups() != 1 {
		t.Errorf("responder lookups = %d, want 1", h.OCSPLookups())
	}
}

func TestRevokedStapleRejectedByAllBrowsers(t *testing.T) {
	h, err := NewHarness(t0)
	if err != nil {
		t.Fatal(err)
	}
	// Build a revoked staple directly.
	id, err := ocsp.NewCertID(h.Leaf.Certificate, h.CA.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	single := ocsp.SingleResponse{
		CertID: id, Status: ocsp.Revoked,
		RevokedAt:  t0.Add(-time.Hour),
		Reason:     pkixutil.ReasonKeyCompromise,
		ThisUpdate: t0.Add(-time.Minute),
		NextUpdate: t0.Add(24 * time.Hour),
	}
	staple, err := ocsp.CreateResponse(&ocsp.ResponderTemplate{Signer: h.CA.Key, Certificate: h.CA.Certificate}, t0, []ocsp.SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.staple = staple
	for _, b := range []Behavior{
		{Name: "Chrome 66", OS: "Linux", RequestsStaple: true},
		{Name: "Firefox 60", OS: "Linux", RequestsStaple: true, RespectsMustStaple: true},
	} {
		res, err := h.connect(b, true)
		if err != nil {
			t.Fatal(err)
		}
		if res.Staple != StapleRevoked {
			t.Errorf("%s: staple status = %v, want revoked", b, res.Staple)
		}
		if res.Accepted {
			t.Errorf("%s: a Revoked staple must be rejected by every browser", b)
		}
	}
}

func TestEvaluateStaple(t *testing.T) {
	h, err := NewHarness(t0)
	if err != nil {
		t.Fatal(err)
	}
	leaf, issuer := h.Leaf.Certificate, h.CA.Certificate

	if got := EvaluateStaple(nil, leaf, issuer, t0); got != StapleMissing {
		t.Errorf("nil staple = %v", got)
	}
	if got := EvaluateStaple([]byte("garbage"), leaf, issuer, t0); got != StapleInvalid {
		t.Errorf("garbage staple = %v", got)
	}
	if got := EvaluateStaple(h.staple, leaf, issuer, t0); got != StapleGood {
		t.Errorf("valid staple = %v", got)
	}
	// Expired staple.
	if got := EvaluateStaple(h.staple, leaf, issuer, t0.AddDate(1, 0, 0)); got != StapleInvalid {
		t.Errorf("expired staple = %v", got)
	}
	// Not-yet-valid staple (client clock behind thisUpdate).
	if got := EvaluateStaple(h.staple, leaf, issuer, t0.Add(-2*time.Hour)); got != StapleInvalid {
		t.Errorf("premature staple = %v", got)
	}
	// Staple signed by an unrelated CA.
	other, err := NewHarness(t0)
	if err != nil {
		t.Fatal(err)
	}
	if got := EvaluateStaple(other.staple, leaf, issuer, t0); got != StapleInvalid {
		t.Errorf("foreign staple = %v", got)
	}
	// Error-status staple (tryLater).
	if got := EvaluateStaple(ocsp.ErrorResponse(ocsp.StatusTryLater), leaf, issuer, t0); got != StapleInvalid {
		t.Errorf("tryLater staple = %v", got)
	}
}

func TestStapleStatusStrings(t *testing.T) {
	for s, want := range map[StapleStatus]string{
		StapleMissing: "missing", StapleInvalid: "invalid",
		StapleRevoked: "revoked", StapleGood: "good",
	} {
		if s.String() != want {
			t.Errorf("%d = %q, want %q", int(s), s.String(), want)
		}
	}
}
