package webserver

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Expect-Staple (Scott Helme's draft, modeled on Expect-CT): a site
// advertises, via an HTTP response header, that it intends to staple a
// valid OCSP response on every TLS handshake. User agents that see the
// header note the site as a Known Expect-Staple Host for max-age and,
// on later handshakes, report staple violations to the site's report-uri
// — the operator feedback loop whose absence the paper identifies as the
// reason Must-Staple commitments break silently.

// ExpectStaple is one site's Expect-Staple policy.
type ExpectStaple struct {
	// MaxAge is how long a user agent keeps the site in its Known
	// Expect-Staple Hosts list after last seeing the header.
	MaxAge time.Duration
	// ReportURI receives violation reports (POSTed JSON in the draft;
	// the canonical binary codec in this reproduction). Empty means the
	// site enforces without collecting telemetry.
	ReportURI string
	// Enforce distinguishes enforce mode (the UA should hard-fail the
	// connection on a violation) from report-only.
	Enforce bool
}

// HeaderValue renders the policy as the header's directive list, e.g.
//
//	max-age=86400; report-uri="https://reports.example/staple"; enforce
//
// The rendering is canonical: ParseExpectStaple(p.HeaderValue()) == p.
func (p ExpectStaple) HeaderValue() string {
	var b strings.Builder
	b.WriteString("max-age=")
	b.WriteString(strconv.FormatInt(int64(p.MaxAge/time.Second), 10))
	if p.ReportURI != "" {
		b.WriteString(`; report-uri="`)
		b.WriteString(p.ReportURI)
		b.WriteString(`"`)
	}
	if p.Enforce {
		b.WriteString("; enforce")
	}
	return b.String()
}

// maxAgeSeconds is the largest max-age a Duration holds in whole seconds
// (about 292 years). A longer max-age saturates to it: multiplied out, it
// would overflow to a negative Duration, which a user agent reads as
// max-age=0 and un-enrolls the host.
const maxAgeSeconds = math.MaxInt64 / int64(time.Second)

// ParseExpectStaple parses a header value produced by HeaderValue (or a
// hand-written equivalent). Directives are ';'-separated; max-age is
// required, duplicate directives are rejected, and unknown directives are
// ignored (header fields grow new directives over time).
func ParseExpectStaple(v string) (ExpectStaple, error) {
	var (
		p                             ExpectStaple
		sawMaxAge, sawURI, sawEnforce bool
	)
	for _, part := range strings.Split(v, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, arg, hasArg := strings.Cut(part, "=")
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "max-age":
			if sawMaxAge {
				return ExpectStaple{}, fmt.Errorf("webserver: duplicate max-age directive")
			}
			sawMaxAge = true
			if !hasArg {
				return ExpectStaple{}, fmt.Errorf("webserver: max-age needs a value")
			}
			secs, err := strconv.ParseInt(strings.TrimSpace(arg), 10, 64)
			if err != nil || secs < 0 {
				return ExpectStaple{}, fmt.Errorf("webserver: bad max-age %q", arg)
			}
			p.MaxAge = time.Duration(min(secs, maxAgeSeconds)) * time.Second
		case "report-uri":
			if sawURI {
				return ExpectStaple{}, fmt.Errorf("webserver: duplicate report-uri directive")
			}
			sawURI = true
			if !hasArg {
				return ExpectStaple{}, fmt.Errorf("webserver: report-uri needs a value")
			}
			uri := strings.TrimSpace(arg)
			if len(uri) < 2 || uri[0] != '"' || uri[len(uri)-1] != '"' {
				return ExpectStaple{}, fmt.Errorf("webserver: report-uri %q must be quoted", arg)
			}
			p.ReportURI = uri[1 : len(uri)-1]
		case "enforce":
			if sawEnforce {
				return ExpectStaple{}, fmt.Errorf("webserver: duplicate enforce directive")
			}
			if hasArg {
				return ExpectStaple{}, fmt.Errorf("webserver: enforce takes no value")
			}
			sawEnforce = true
			p.Enforce = true
		default:
			// Unknown directive: tolerated, per header-extension custom.
		}
	}
	if !sawMaxAge {
		return ExpectStaple{}, fmt.Errorf("webserver: Expect-Staple header has no max-age")
	}
	return p, nil
}

// ExpectStapleHeaderValue returns the engine's advertised Expect-Staple
// header value; ok is false when the site has no policy configured. The
// header rides on every HTTP response the site serves, independent of
// whether the handshake carried a (valid) staple — that independence is
// what lets a UA note a misconfigured host and then report against it.
func (e *Engine) ExpectStapleHeaderValue() (value string, ok bool) {
	if e.ExpectStaple == nil {
		return "", false
	}
	return e.ExpectStaple.HeaderValue(), true
}
