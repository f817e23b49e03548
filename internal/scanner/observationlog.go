package scanner

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// ObservationLog records one canonical text line per observation. It backs
// the responder-cache equivalence tests: a campaign run against cached
// responders and one against per-scan-signing responders must produce the
// same observation multiset, and comparing sorted canonical lines proves
// exactly that. Every response field that reaches an aggregator is folded
// into the line, so two equal logs imply every figure computed from the
// streams is equal too.
type ObservationLog struct {
	lines []string
}

// NewObservationLog returns an empty log.
//
//lint:allow unused the equivalence oracle of the world and core tests
func NewObservationLog() *ObservationLog { return &ObservationLog{} }

// Add implements Aggregator.
func (l *ObservationLog) Add(o Observation) {
	l.lines = append(l.lines, observationLine(o))
}

// Lines returns the canonical lines sorted lexicographically — each line
// leads with (At, Vantage, Responder, Serial), so the order is the
// campaign's logical scan order regardless of worker interleaving.
func (l *ObservationLog) Lines() []string {
	out := append([]string(nil), l.lines...)
	sort.Strings(out)
	return out
}

// Len returns the number of recorded observations.
func (l *ObservationLog) Len() int { return len(l.lines) }

// Diff returns a short human-readable description of the first difference
// against another log ("" when equal) — test failure output.
func (l *ObservationLog) Diff(other *ObservationLog) string {
	a, b := l.Lines(), other.Lines()
	if len(a) != len(b) {
		return fmt.Sprintf("observation counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("line %d differs:\n  a: %s\n  b: %s", i, a[i], b[i])
		}
	}
	return ""
}

// CanonicalLine renders the observation in the same canonical one-line
// text form ObservationLog records — for dump and diff tooling
// (cmd/storedump -v).
func (o Observation) CanonicalLine() string { return observationLine(o) }

func observationLine(o Observation) string {
	var b strings.Builder
	ts := func(t time.Time) string {
		if t.IsZero() {
			return "-"
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	fmt.Fprintf(&b, "%s %s %s %s", ts(o.At), o.Vantage, o.Responder, o.Serial)
	fmt.Fprintf(&b, " class=%v final=%v attempts=%d salvaged=%v http=%d ocsp=%d",
		o.Class, o.FinalClass, o.Attempts, o.Salvaged, o.HTTPStatus, o.OCSPStatus)
	fmt.Fprintf(&b, " status=%d producedAt=%s thisUpdate=%s nextUpdate=%s hasNext=%v",
		o.CertStatus, ts(o.ProducedAt), ts(o.ThisUpdate), ts(o.NextUpdate), o.HasNextUpdate)
	fmt.Fprintf(&b, " certs=%d serials=%d revokedAt=%s reason=%d latency=%s maxAge=%d domain=%s/%d",
		o.NumCerts, o.NumSerials, ts(o.RevokedAt), o.Reason, o.Latency, o.CacheMaxAge, o.Domain, o.DomainWeight)
	return b.String()
}
