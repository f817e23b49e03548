package webserver

import (
	"testing"
	"time"
)

var tt0 = time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)

// usable is a successful response whose window opens at tt0+from and lasts
// validity (0: a blank nextUpdate).
func usable(from, validity time.Duration) *Fetched {
	f := &Fetched{Usable: true, ThisUpdate: tt0.Add(from)}
	if validity > 0 {
		f.NextUpdate = f.ThisUpdate.Add(validity)
	}
	return f
}

var (
	unreachable = &Fetched{Failed: true}
	ocspError   = &Fetched{} // bytes, but no usable response (tryLater, garbage)
)

// fetchAt is one fetch folded into the state before the handshake under
// test.
type fetchAt struct {
	at time.Duration
	f  *Fetched
}

// TestTransition pins the policy rows' decisions on the edge cases of §7.2
// and §8: each case folds its prior fetches into a cold state, then runs
// one handshake at `at` whose fetch, if due, yields f.
func TestTransition(t *testing.T) {
	cases := []struct {
		name  string
		p     Policy
		prior []fetchAt
		at    time.Duration
		f     *Fetched
		// due: the handshake fetches; kept: the fetched response
		// replaced the held one; staple: the handshake staples;
		// accepted: a hard-failing client accepts that staple.
		due, kept, staple, accepted bool
	}{
		{name: "cold apache pauses and staples", p: ApachePolicy(), f: usable(-time.Hour, 24*time.Hour),
			due: true, kept: true, staple: true, accepted: true},
		{name: "cold nginx fetches after the handshake", p: NginxPolicy(), f: usable(-time.Hour, 24*time.Hour),
			due: true, kept: true},
		{name: "future thisUpdate: correct keeps the accepted staple", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 2 * time.Hour, f: usable(3*time.Hour, 24*time.Hour),
			due: true, staple: true, accepted: true},
		{name: "future thisUpdate: apache takes it", p: ApachePolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 2 * time.Hour, f: usable(3*time.Hour, 24*time.Hour),
			due: true, kept: true, staple: true},
		{name: "future thisUpdate on a cold cache: correct takes it", p: CorrectPolicy(), f: usable(time.Hour, 24*time.Hour),
			due: true, kept: true, staple: true},
		{name: "expires sooner: correct keeps the longer-lived staple", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 7*24*time.Hour)}}, at: 2 * time.Hour, f: usable(time.Hour, 4*time.Hour),
			due: true, staple: true, accepted: true},
		{name: "expires later: correct takes it", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 2 * time.Hour, f: usable(time.Hour, 24*time.Hour),
			due: true, kept: true, staple: true, accepted: true},
		{name: "blank nextUpdate outlives any dated response", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 0)}}, at: 2 * time.Hour, f: usable(time.Hour, 365*24*time.Hour),
			due: true, staple: true, accepted: true},
		{name: "blank nextUpdate: correct retains it for months", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 0)}}, at: 100 * 24 * time.Hour, f: unreachable,
			due: true, staple: true, accepted: true},
		{name: "blank nextUpdate: the CDN refreshes hourly", p: CDNPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 0)}}, at: time.Hour, f: usable(time.Hour-time.Minute, 0),
			due: true, kept: true, staple: true, accepted: true},
		{name: "blank nextUpdate: the CDN holds within the hour", p: CDNPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 0)}}, at: 59 * time.Minute,
			staple: true, accepted: true},
		{name: "CDN before half-life serves its cache", p: CDNPolicy(),
			prior: []fetchAt{{0, usable(0, 24*time.Hour)}}, at: 12*time.Hour - time.Nanosecond,
			staple: true, accepted: true},
		{name: "CDN past half-life retains through a failed refresh", p: CDNPolicy(),
			prior: []fetchAt{{0, usable(0, 24*time.Hour)}}, at: 13 * time.Hour, f: unreachable,
			due: true, staple: true, accepted: true},
		{name: "CDN past nextUpdate has nothing valid", p: CDNPolicy(),
			prior: []fetchAt{{0, usable(0, 24*time.Hour)}, {13 * time.Hour, unreachable}}, at: 25 * time.Hour, f: unreachable,
			due: true},
		{name: "error response: apache staples it", p: ApachePolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 2 * time.Hour, f: ocspError,
			due: true, kept: true, staple: true},
		{name: "error response held: apache refetches at once", p: ApachePolicy(),
			prior: []fetchAt{{0, ocspError}}, at: 0, f: usable(-time.Hour, 24*time.Hour),
			due: true, kept: true, staple: true, accepted: true},
		{name: "error response: correct keeps the old response", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 2 * time.Hour, f: ocspError,
			due: true, staple: true, accepted: true},
		{name: "error response past nextUpdate: nginx staples neither", p: NginxPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 2*time.Hour)}}, at: 2 * time.Hour, f: ocspError,
			due: true},
		{name: "error response: the serve-stale CDN keeps the old response", p: StaleServingCDNPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 2 * time.Hour, f: ocspError,
			due: true, staple: true, accepted: true},
		{name: "unreachable: apache drops its cache", p: ApachePolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 2 * time.Hour, f: unreachable,
			due: true},
		{name: "unreachable past nextUpdate: nginx withholds the expired staple", p: NginxPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 2*time.Hour)}}, at: 2 * time.Hour, f: unreachable,
			due: true},
		{name: "unreachable past nextUpdate: the serve-stale CDN staples it", p: StaleServingCDNPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 2*time.Hour)}}, at: 2 * time.Hour, f: unreachable,
			due: true, staple: true},
		{name: "expired in cache: apache staples it within its hour", p: ApachePolicy(),
			prior: []fetchAt{{0, usable(-time.Minute, 30*time.Minute)}}, at: 40 * time.Minute,
			staple: true},
		{name: "expired in cache: nginx refetches", p: NginxPolicy(),
			prior: []fetchAt{{0, usable(-time.Minute, 30*time.Minute)}}, at: 40 * time.Minute, f: usable(39*time.Minute, 30*time.Minute),
			due: true, kept: true, staple: true, accepted: true},
		{name: "rate-limited refresh: nginx staples the expired response", p: NginxPolicy(),
			prior: []fetchAt{{0, usable(0, 2*time.Minute)}}, at: 4 * time.Minute,
			staple: true},
		{name: "rate limit lapsed: nginx refetches", p: NginxPolicy(),
			prior: []fetchAt{{0, usable(0, 2*time.Minute)}}, at: 5 * time.Minute, f: usable(5*time.Minute, 2*time.Minute),
			due: true, kept: true, staple: true, accepted: true},
		{name: "rate-limited cold nginx waits", p: NginxPolicy(),
			prior: []fetchAt{{0, unreachable}}, at: time.Minute},
		{name: "correct holds within its hour", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 59 * time.Minute,
			staple: true, accepted: true},
		{name: "correct refreshes after its hour", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: time.Hour, f: usable(0, 24*time.Hour),
			due: true, kept: true, staple: true, accepted: true},
		{name: "same instant: no-cache shares the fetch", p: NoCachePolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 0,
			staple: true, accepted: true},
		{name: "next instant: no-cache fetches again", p: NoCachePolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: time.Nanosecond, f: unreachable,
			due: true},
		{name: "same instant after a failure: no-cache fetches again", p: NoCachePolicy(),
			prior: []fetchAt{{0, unreachable}}, at: 0, f: usable(-time.Hour, 24*time.Hour),
			due: true, kept: true, staple: true, accepted: true},
		{name: "same instant: apache shares the fetch", p: ApachePolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}}, at: 0,
			staple: true, accepted: true},
		{name: "same instant: correct shares a failed refresh's retained staple", p: CorrectPolicy(),
			prior: []fetchAt{{0, usable(-time.Hour, 24*time.Hour)}, {2 * time.Hour, unreachable}}, at: 2 * time.Hour, f: unreachable,
			due: true, staple: true, accepted: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var h Held
			for _, pf := range c.prior {
				h, _ = c.p.Apply(h, *pf.f, tt0.Add(pf.at))
			}
			now := tt0.Add(c.at)
			due := c.p.Due(h, now)
			after, kept, fetched := h, false, (*Fetched)(nil)
			if due {
				after, kept = c.p.Apply(h, *c.f, now)
				fetched = c.f
			}
			staple := c.p.Staple(h, now, fetched)
			accepted := staple && after.Accepted(now)
			if due != c.due || kept != c.kept || staple != c.staple || accepted != c.accepted {
				t.Errorf("due, kept, staple, accepted = %v, %v, %v, %v; want %v, %v, %v, %v",
					due, kept, staple, accepted, c.due, c.kept, c.staple, c.accepted)
			}
		})
	}
}

// TestUnixNanoSaturates: instants beyond int64 nanoseconds keep their
// order instead of wrapping.
func TestUnixNanoSaturates(t *testing.T) {
	far := []time.Time{time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC), tt0, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)}
	if !(unixNano(far[0]) < unixNano(far[1]) && unixNano(far[1]) < unixNano(far[2])) {
		t.Errorf("unixNano out of order: %d, %d, %d", unixNano(far[0]), unixNano(far[1]), unixNano(far[2]))
	}
	if unixNano(time.Time{}) != 0 {
		t.Error("the zero time is not 0")
	}
	h, _ := CorrectPolicy().Apply(Held{}, Fetched{Usable: true, ThisUpdate: tt0, NextUpdate: far[2]}, tt0)
	if !h.Accepted(tt0.AddDate(200, 0, 0)) {
		t.Error("a response valid until 9999 expired")
	}
}
