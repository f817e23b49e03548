package expectstaple

import (
	"crypto"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/pkixutil"
)

type classifyFixture struct {
	ca   *pki.CA
	leaf *pki.Leaf
	id   ocsp.CertID
	now  time.Time
}

func newClassifyFixture(t *testing.T) *classifyFixture {
	t.Helper()
	now := time.Date(2018, 6, 1, 12, 0, 0, 0, time.UTC)
	ca, err := pki.NewRootCA(pki.Config{Name: "Classify CA", OCSPURL: "http://ocsp.classify.test"})
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.IssueLeaf(pki.LeafOptions{
		DNSNames: []string{"classify.test"}, NotBefore: now.AddDate(0, -1, 0), MustStaple: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := ocsp.NewCertID(leaf.Certificate, ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	return &classifyFixture{ca: ca, leaf: leaf, id: id, now: now}
}

func (fx *classifyFixture) staple(t *testing.T, single ocsp.SingleResponse) []byte {
	t.Helper()
	der, err := ocsp.CreateResponse(
		&ocsp.ResponderTemplate{Signer: fx.ca.Key, Certificate: fx.ca.Certificate},
		fx.now, []ocsp.SingleResponse{single}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return der
}

func TestClassify(t *testing.T) {
	fx := newClassifyFixture(t)
	good := ocsp.SingleResponse{
		CertID: fx.id, Status: ocsp.Good,
		ThisUpdate: fx.now.Add(-time.Hour), NextUpdate: fx.now.Add(24 * time.Hour),
	}

	// A valid, in-window Good staple: no violation.
	if ev := Classify(fx.staple(t, good), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false); ev.Violated {
		t.Fatalf("good staple violated: %+v", ev)
	}

	// No staple at all.
	ev := Classify(nil, fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationMissing {
		t.Fatalf("missing staple: %+v", ev)
	}

	// A validly signed Revoked staple: the revoked-but-served class.
	revoked := good
	revoked.Status = ocsp.Revoked
	revoked.RevokedAt = fx.now.AddDate(0, -1, 0)
	revoked.Reason = pkixutil.ReasonKeyCompromise
	ev = Classify(fx.staple(t, revoked), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationRevoked {
		t.Fatalf("revoked staple: %+v", ev)
	}
	if !ev.ThisUpdate.Equal(good.ThisUpdate.Truncate(time.Second)) {
		t.Fatalf("revoked staple window not surfaced: %+v", ev)
	}

	// Out-of-window (expired) with a healthy refresh loop: expired-window.
	expired := good
	expired.ThisUpdate = fx.now.Add(-48 * time.Hour)
	expired.NextUpdate = fx.now.Add(-24 * time.Hour)
	ev = Classify(fx.staple(t, expired), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationExpired {
		t.Fatalf("expired staple: %+v", ev)
	}

	// The same expired staple while the site's refreshes are failing:
	// outage staleness, not a signing-window defect.
	ev = Classify(fx.staple(t, expired), fx.leaf.Certificate, fx.ca.Certificate, fx.now, true)
	if !ev.Violated || ev.Violation != ViolationStale {
		t.Fatalf("stale staple: %+v", ev)
	}

	// Not-yet-valid (future thisUpdate) is also an expired-window case.
	future := good
	future.ThisUpdate = fx.now.Add(5 * time.Minute)
	future.NextUpdate = fx.now.Add(24 * time.Hour)
	ev = Classify(fx.staple(t, future), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationExpired {
		t.Fatalf("future staple: %+v", ev)
	}

	// Garbage bytes: malformed.
	ev = Classify([]byte("not a response"), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationMalformed {
		t.Fatalf("garbage staple: %+v", ev)
	}

	// A staple for the wrong certificate: malformed (CertID mismatch),
	// even though it is in-window and validly signed.
	other, err := fx.ca.IssueLeaf(pki.LeafOptions{DNSNames: []string{"other.test"}, NotBefore: fx.now.AddDate(0, -1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	otherID, err := ocsp.NewCertID(other.Certificate, fx.ca.Certificate, crypto.SHA1)
	if err != nil {
		t.Fatal(err)
	}
	wrong := good
	wrong.CertID = otherID
	ev = Classify(fx.staple(t, wrong), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationMalformed {
		t.Fatalf("wrong-cert staple: %+v", ev)
	}

	// A validly signed Unknown status: malformed inside its window, with
	// the window surfaced; outside it, the window decides (expired).
	unknown := good
	unknown.Status = ocsp.Unknown
	ev = Classify(fx.staple(t, unknown), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationMalformed || !ev.ThisUpdate.Equal(good.ThisUpdate.Truncate(time.Second)) {
		t.Fatalf("in-window unknown staple: %+v", ev)
	}
	unknown.ThisUpdate, unknown.NextUpdate = expired.ThisUpdate, expired.NextUpdate
	ev = Classify(fx.staple(t, unknown), fx.leaf.Certificate, fx.ca.Certificate, fx.now, false)
	if !ev.Violated || ev.Violation != ViolationExpired {
		t.Fatalf("expired unknown staple: %+v", ev)
	}
}

func TestViolationStrings(t *testing.T) {
	seen := map[string]bool{}
	for v := Violation(0); int(v) < NumViolations; v++ {
		s := v.String()
		if s == "" || seen[s] {
			t.Fatalf("violation %d has empty or duplicate name %q", v, s)
		}
		seen[s] = true
	}
}
