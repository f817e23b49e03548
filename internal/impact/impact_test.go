package impact

import (
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/scanner"
)

var t0 = time.Date(2018, 5, 1, 0, 0, 0, 0, time.UTC)

// obs builds one observation; usable=true means a fresh 7-day response.
func obs(hour int, usable bool) scanner.Observation {
	o := scanner.Observation{
		Responder: "ocsp.r.test",
		Vantage:   "Oregon",
		At:        t0.Add(time.Duration(hour) * time.Hour),
	}
	if usable {
		o.Class = scanner.ClassOK
		o.HasNextUpdate = true
		o.ThisUpdate = o.At.Add(-time.Hour)
		o.NextUpdate = o.At.Add(7 * 24 * time.Hour)
	} else {
		o.Class = scanner.ClassTCP
	}
	return o
}

func results(h *HardFail) map[ServerModel]Result {
	out := map[ServerModel]Result{}
	for _, r := range h.Results() {
		out[r.Model] = r
	}
	return out
}

func TestAllHealthy(t *testing.T) {
	h := NewHardFail()
	for i := 0; i < 24; i++ {
		h.Add(obs(i, true))
	}
	for m, r := range results(h) {
		if r.BrokenFraction != 0 {
			t.Errorf("%v: broken = %v, want 0", m, r.BrokenFraction)
		}
		if r.Handshakes != 24 {
			t.Errorf("%v: handshakes = %d", m, r.Handshakes)
		}
	}
}

func TestTransientOutageWithinValidity(t *testing.T) {
	// A 3-hour outage after one good fetch. The paper's argument: with
	// week-long validity, a retaining server survives; a cacheless or
	// drop-on-error server does not.
	h := NewHardFail()
	h.Add(obs(0, true))
	for i := 1; i <= 3; i++ {
		h.Add(obs(i, false))
	}
	h.Add(obs(4, true))
	got := results(h)
	if got[ModelCorrect].BrokenFraction != 0 {
		t.Errorf("correct: broken = %v, want 0 (outage ≪ validity)", got[ModelCorrect].BrokenFraction)
	}
	want := 3.0 / 5.0
	if got[ModelNoCache].BrokenFraction != want {
		t.Errorf("no-cache: broken = %v, want %v", got[ModelNoCache].BrokenFraction, want)
	}
	if got[ModelApache].BrokenFraction != want {
		t.Errorf("apache: broken = %v, want %v (drop-on-error)", got[ModelApache].BrokenFraction, want)
	}
}

func TestOutageOutlastingValidity(t *testing.T) {
	// Even the correct server breaks once the retained response
	// expires: a >7-day outage with 7-day validity.
	h := NewHardFail()
	h.Add(obs(0, true))
	brokenHour := -1
	for i := 1; i <= 9*24; i++ {
		h.Add(obs(i, false))
		if brokenHour < 0 {
			if r := results(h)[ModelCorrect]; r.BrokenFraction > 0 {
				brokenHour = i
			}
		}
	}
	if brokenHour < 0 {
		t.Fatal("correct server should eventually run out of staple")
	}
	// The retained response was valid for 7 days from the fetch.
	if brokenHour < 7*24 || brokenHour > 7*24+2 {
		t.Errorf("correct server broke at hour %d, want ≈%d", brokenHour, 7*24+1)
	}
}

func TestBlankNextUpdateNeverExpires(t *testing.T) {
	h := NewHardFail()
	o := obs(0, true)
	o.HasNextUpdate = false
	o.NextUpdate = time.Time{}
	h.Add(o)
	for i := 1; i < 100*24; i += 24 {
		h.Add(obs(i, false))
	}
	if got := results(h)[ModelCorrect].BrokenFraction; got != 0 {
		t.Errorf("blank nextUpdate staple should serve forever: broken = %v", got)
	}
}

func TestPersistentFailureBreaksEveryone(t *testing.T) {
	h := NewHardFail()
	for i := 0; i < 10; i++ {
		h.Add(obs(i, false))
	}
	for m, r := range results(h) {
		if r.BrokenFraction != 1 {
			t.Errorf("%v: broken = %v, want 1 (never a valid staple)", m, r.BrokenFraction)
		}
	}
}

func TestPerResponderIsolation(t *testing.T) {
	// One responder down must not break another's staple state.
	h := NewHardFail()
	good := obs(0, true)
	bad := obs(0, false)
	bad.Responder = "ocsp.other.test"
	h.Add(good)
	h.Add(bad)
	got := results(h)[ModelCorrect]
	if got.Handshakes != 2 || got.BrokenFraction != 0.5 {
		t.Errorf("result = %+v, want 2 handshakes with 0.5 broken", got)
	}
}

func TestModelStrings(t *testing.T) {
	if ModelNoCache.String() != "no-cache" || ModelApache.String() != "apache-like" || ModelCorrect.String() != "correct" {
		t.Error("model names wrong")
	}
	if len(Models()) != 3 {
		t.Error("model list wrong")
	}
}
