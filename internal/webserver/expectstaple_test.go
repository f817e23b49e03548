package webserver

import (
	"math"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/netsim"
)

func TestExpectStapleHeaderRoundTrip(t *testing.T) {
	cases := []ExpectStaple{
		{MaxAge: 24 * time.Hour},
		{MaxAge: 24 * time.Hour, Enforce: true},
		{MaxAge: 7 * 24 * time.Hour, ReportURI: "https://reports.example/staple"},
		{MaxAge: time.Second, ReportURI: "http://r.test/es", Enforce: true},
		{MaxAge: 0},
	}
	for _, p := range cases {
		v := p.HeaderValue()
		got, err := ParseExpectStaple(v)
		if err != nil {
			t.Fatalf("ParseExpectStaple(%q): %v", v, err)
		}
		if got != p {
			t.Fatalf("round trip through %q: got %+v, want %+v", v, got, p)
		}
	}
}

// TestParseExpectStapleSaturatesMaxAge: a max-age past the Duration range
// (here ~295 years) saturates to the longest whole-second Duration
// instead of overflowing to a negative one, and the saturated policy
// renders and parses back unchanged.
func TestParseExpectStapleSaturatesMaxAge(t *testing.T) {
	longest := time.Duration(math.MaxInt64/int64(time.Second)) * time.Second
	for _, v := range []string{"max-age=9300000000", "max-age=9223372036", "max-age=9223372036854775807"} {
		p, err := ParseExpectStaple(v)
		if err != nil {
			t.Fatalf("ParseExpectStaple(%q): %v", v, err)
		}
		if p.MaxAge != longest {
			t.Fatalf("ParseExpectStaple(%q).MaxAge = %v, want %v", v, p.MaxAge, longest)
		}
		if again, err := ParseExpectStaple(p.HeaderValue()); err != nil || again != p {
			t.Fatalf("saturated policy round trip through %q: %+v, %v", p.HeaderValue(), again, err)
		}
	}
}

func TestExpectStapleHeaderRendering(t *testing.T) {
	p := ExpectStaple{MaxAge: 86400 * time.Second, ReportURI: "https://reports.example/staple", Enforce: true}
	want := `max-age=86400; report-uri="https://reports.example/staple"; enforce`
	if got := p.HeaderValue(); got != want {
		t.Fatalf("HeaderValue = %q, want %q", got, want)
	}
}

func TestParseExpectStapleErrors(t *testing.T) {
	bad := []string{
		"",                                 // no max-age
		"enforce",                          // no max-age
		"max-age",                          // missing value
		"max-age=abc",                      // non-numeric
		"max-age=-5",                       // negative
		"max-age=10; max-age=20",           // duplicate
		`max-age=10; report-uri=no-quotes`, // unquoted URI
		`max-age=10; report-uri`,           // missing value
		`max-age=10; report-uri="a"; report-uri="b"`, // duplicate
		"max-age=10; enforce=yes",                    // enforce takes no value
		"max-age=10; enforce; enforce",               // duplicate
	}
	for _, v := range bad {
		if _, err := ParseExpectStaple(v); err == nil {
			t.Errorf("ParseExpectStaple(%q) accepted", v)
		}
	}

	// Unknown directives and loose whitespace are tolerated.
	got, err := ParseExpectStaple(` max-age=60 ;  Report-URI="http://r.test" ; preload ; enforce `)
	if err != nil {
		t.Fatal(err)
	}
	want := ExpectStaple{MaxAge: time.Minute, ReportURI: "http://r.test", Enforce: true}
	if got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestEngineExpectStapleHeaderValue(t *testing.T) {
	fx := newEngineFixture(t, CorrectPolicy(), 4*time.Hour)
	if v, ok := fx.eng.ExpectStapleHeaderValue(); ok {
		t.Fatalf("engine without policy advertised %q", v)
	}
	fx.eng.ExpectStaple = &ExpectStaple{MaxAge: time.Hour, ReportURI: "http://r.test/es"}
	v, ok := fx.eng.ExpectStapleHeaderValue()
	if !ok {
		t.Fatal("engine with policy advertised nothing")
	}
	if _, err := ParseExpectStaple(v); err != nil {
		t.Fatalf("advertised header does not parse: %v", err)
	}
}

// TestStaleServingCDNServesExpired pins the serve-stale CDN tier: when
// the upstream responder dies, the cached staple keeps being served past
// its nextUpdate (RespectNextUpdate=false + RetainOnError), and
// RefreshFailing reports the outage.
func TestStaleServingCDNServesExpired(t *testing.T) {
	fx := newEngineFixture(t, StaleServingCDNPolicy(), 2*time.Hour)
	// The responder is down from 1h to 8h in.
	fx.net.AddRule(&netsim.Rule{Host: engineOCSPHost, Kind: netsim.FailTCP,
		Windows: []netsim.Window{{From: tt0.Add(time.Hour), To: tt0.Add(8 * time.Hour)}}})
	if err := fx.eng.Start(); err != nil {
		t.Fatal(err)
	}
	if fx.eng.StapleForHandshake() == nil {
		t.Fatal("prefetching CDN should staple immediately")
	}
	if fx.eng.RefreshFailing() {
		t.Fatal("RefreshFailing true while upstream healthy")
	}

	// Advance into the outage, well past nextUpdate. Refreshes fail, the
	// stale staple stays.
	fx.clk.Advance(6 * time.Hour)
	staple := fx.eng.StapleForHandshake()
	fx.eng.WaitIdle()
	if staple == nil {
		t.Fatal("serve-stale CDN dropped its cached staple during the outage")
	}
	// The refresh attempt above has failed by WaitIdle.
	if !fx.eng.RefreshFailing() {
		t.Fatal("RefreshFailing false during outage")
	}

	// Upstream recovers: the next handshake triggers a refresh and the
	// failure flag clears.
	fx.clk.Advance(2 * time.Hour)
	if fx.eng.StapleForHandshake() == nil {
		t.Fatal("no staple after recovery")
	}
	fx.eng.WaitIdle()
	if fx.eng.RefreshFailing() {
		t.Fatal("RefreshFailing still set after successful refresh")
	}
}
