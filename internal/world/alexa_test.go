package world

import (
	"testing"
	"time"
)

func TestAlexaJoin(t *testing.T) {
	w := build(t, Config{Seed: 11, AlexaDomains: 20_000})

	// Every Alexa target carries a positive weight and points at a
	// registered responder.
	hosts := map[string]bool{}
	for _, h := range w.Network.Hosts() {
		hosts[h] = true
	}
	totalWeighted := 0
	for _, tgt := range w.AlexaTargets {
		if tgt.DomainWeight <= 0 {
			t.Fatalf("%s: weight %d", tgt.Responder, tgt.DomainWeight)
		}
		if !hosts[tgt.Responder] {
			t.Fatalf("%s not registered on the network", tgt.Responder)
		}
		totalWeighted += tgt.DomainWeight
	}
	// The weighted join covers the OCSP-supporting share of the scaled
	// Top-1M (roughly 75% HTTPS × 93% OCSP ≈ 700K).
	if totalWeighted < 500_000 || totalWeighted > 900_000 {
		t.Errorf("total weighted domains = %d, want ≈700K", totalWeighted)
	}
	if w.AlexaScale != 50 { // 1M / 20k
		t.Errorf("AlexaScale = %d, want 50", w.AlexaScale)
	}

	// The Comodo group is popular (large weights); the always-dead pair
	// is unpopular or entirely outside the Alexa set — the §5.2
	// concentration the Figure 4 join depends on.
	weightOf := map[string]int{}
	for _, tgt := range w.AlexaTargets {
		weightOf[tgt.Responder] = tgt.DomainWeight
	}
	comodo := weightOf["ocsp.comodoca.test"]
	dead := weightOf["ocsp.identrustsafeca1.test"]
	if comodo == 0 {
		t.Fatal("comodo must serve Alexa domains")
	}
	if dead >= comodo {
		t.Errorf("dead responder weight %d should be far below comodo %d", dead, comodo)
	}
}

func TestResponderValidities(t *testing.T) {
	w := build(t, Config{Seed: 12, Responders: 160, AlexaDomains: 2000})
	vs := w.ResponderValidities()
	if len(vs) != 160 {
		t.Fatalf("validities = %d", len(vs))
	}
	var huge, tiny int
	for _, v := range vs {
		if v <= 0 {
			t.Fatal("non-positive validity")
		}
		if v > 31*24*time.Hour {
			huge++
		}
		if v <= 3*time.Hour {
			tiny++
		}
	}
	// The distribution carries both tails: the >1-month outliers of
	// Figure 8 and the hinet/cnnic non-overlapping responders.
	if huge == 0 {
		t.Error("missing the long-validity tail")
	}
	if tiny == 0 {
		t.Error("missing the short-validity (non-overlapping) responders")
	}
}

func TestEventScheduleDocumented(t *testing.T) {
	w := build(t, Config{Seed: 13, AlexaDomains: 2000})
	names := map[string]bool{}
	for _, e := range w.Events {
		names[e.Name] = true
		if e.Window.From.IsZero() {
			t.Errorf("%s: event without a start", e.Name)
		}
		if len(e.Responders) == 0 {
			t.Errorf("%s: event without responders", e.Name)
		}
	}
	for _, want := range []string{"comodo-outage", "wosign-startssl-outage", "digicert-outage", "certum-outage", "wayport-decline"} {
		if !names[want] {
			t.Errorf("missing documented event %s", want)
		}
	}
	// The Comodo event covers the full 15-responder group.
	for _, e := range w.Events {
		if e.Name == "comodo-outage" && len(e.Responders) != 15 {
			t.Errorf("comodo event responders = %d, want 15", len(e.Responders))
		}
	}
}
