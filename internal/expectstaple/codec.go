// Package expectstaple implements the Expect-Staple telemetry pipeline
// end to end: sites advertise the policy (internal/webserver's
// ExpectStaple header), a simulated user-agent fleet evaluates every
// handshake against the staple-validity rules and emits canonical
// violation reports, and a production-grade HTTP collector ingests,
// aggregates, and persists them. The pipeline answers the question the
// paper gestures at — would operators have detected their stapling
// misconfiguration before committing to Must-Staple? — by measuring
// detection latency per misconfiguration class over the synthetic
// world's §5.2 failure schedules.
package expectstaple

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/netmeasure/muststaple/internal/wire"
)

// ContentTypeReport is the media type of a POSTed violation report (the
// draft uses JSON; this reproduction's canonical form is the binary
// codec below, which is what the collector's zero-allocation hot path
// decodes).
const ContentTypeReport = "application/expect-staple-report"

// Violation classifies what a Known-Expect-Staple-Host handshake got
// wrong, refining browser.StapleStatus with the server-side distinction
// between a plain expired window and responder-outage staleness.
type Violation int

const (
	// ViolationMissing: the handshake carried no staple at all.
	ViolationMissing Violation = iota
	// ViolationExpired: the staple's validity window excludes the
	// handshake time (expired or not yet valid) while the site's
	// upstream refresh is healthy — the responder serves windows that
	// cannot be stapled freshly (future thisUpdate, non-overlapping
	// validity).
	ViolationExpired
	// ViolationStale: an expired staple served while the site's
	// refresh is failing — the server is knowingly serving its last
	// response through a responder outage.
	ViolationStale
	// ViolationMalformed: the staple does not parse, carries a bad
	// signature, or answers about the wrong certificate.
	ViolationMalformed
	// ViolationRevoked: a validly signed staple reporting Revoked was
	// served anyway.
	ViolationRevoked

	// NumViolations bounds the enum for per-class accumulators.
	NumViolations int = iota
)

func (v Violation) String() string {
	switch v {
	case ViolationMissing:
		return "missing-staple"
	case ViolationExpired:
		return "expired-window"
	case ViolationStale:
		return "outage-staleness"
	case ViolationMalformed:
		return "malformed-response"
	case ViolationRevoked:
		return "revoked-but-served"
	}
	return fmt.Sprintf("violation(%d)", int(v))
}

// Report is one canonical Expect-Staple violation report — what a user
// agent POSTs to a site's report-uri after a Known-Expect-Staple-Host
// handshake broke the staple promise.
type Report struct {
	// At is the handshake time as the UA saw it.
	At time.Time
	// Host is the violating site.
	Host string
	// Vantage is the UA's region (the paper's six measurement regions
	// double as the fleet's client locations).
	Vantage string
	// Client is the reporting UA's stable fleet identity.
	Client uint64
	// Violation is the observed failure class.
	Violation Violation
	// Enforce records the policy mode the UA had noted for the host.
	Enforce bool
	// ThisUpdate/NextUpdate are the served staple's validity window;
	// zero when no parseable staple arrived.
	ThisUpdate, NextUpdate time.Time
}

// Wire format: uvarint codec version, then (uvarint tag, value) fields
// in strictly ascending tag order, each value following the internal/wire
// conventions. Ascending-only tags make duplicate and out-of-order
// fields — the classic report-spoofing malformations — detectable
// without a seen-set, and unknown tags are rejected outright:
// an ingestion endpoint on the open Internet cannot afford a lenient
// parse. At, Host, and Violation are required; the rest default to zero
// when omitted. AppendReport always writes every field, so the encoding
// of a Report is canonical (DecodeReport∘AppendReport round-trips
// byte-exactly; FuzzReportDecode pins this).
const reportCodecVersion = 1

const (
	tagAt = 1 + iota
	tagHost
	tagVantage
	tagClient
	tagViolation
	tagEnforce
	tagThisUpdate
	tagNextUpdate
	tagEnd // first unassigned tag
)

// AppendReport appends the canonical encoding of r to b.
func AppendReport(b []byte, r *Report) []byte {
	b = binary.AppendUvarint(b, reportCodecVersion)
	b = binary.AppendUvarint(b, tagAt)
	b = wire.AppendTime(b, r.At)
	b = binary.AppendUvarint(b, tagHost)
	b = wire.AppendString(b, r.Host)
	b = binary.AppendUvarint(b, tagVantage)
	b = wire.AppendString(b, r.Vantage)
	b = binary.AppendUvarint(b, tagClient)
	b = binary.AppendUvarint(b, r.Client)
	b = binary.AppendUvarint(b, tagViolation)
	b = binary.AppendUvarint(b, uint64(r.Violation))
	b = binary.AppendUvarint(b, tagEnforce)
	b = wire.AppendBool(b, r.Enforce)
	b = binary.AppendUvarint(b, tagThisUpdate)
	b = wire.AppendTime(b, r.ThisUpdate)
	b = binary.AppendUvarint(b, tagNextUpdate)
	b = wire.AppendTime(b, r.NextUpdate)
	return b
}

// DecodeReport decodes one report payload. It never panics on corrupt
// input; truncation, trailing bytes, duplicate or out-of-order tags,
// unknown tags, and missing required fields are all reported as errors.
func DecodeReport(b []byte) (Report, error) {
	return decodeReportInterned(b, nil)
}

// decodeReportInterned is DecodeReport with the collector's intern table
// threaded through. Report streams repeat Host and Vantage values
// heavily (a fleet has few regions and a site under violation is
// reported by thousands of clients), so interning cuts the steady-state
// decode to zero allocations — the collector hot path's contract.
//
//lint:allocfree
func decodeReportInterned(b []byte, it *wire.Interns) (Report, error) {
	d := wire.NewDecoder(b, "expectstaple: ", it)
	if v := d.Uvarint(); d.Err() == nil && v != reportCodecVersion {
		//lint:allow allocfree version-mismatch error path, never taken in the steady state
		return Report{}, fmt.Errorf("expectstaple: report codec version %d, want %d", v, reportCodecVersion)
	}
	var (
		r    Report
		seen uint32
		prev uint64
	)
	for d.Err() == nil && d.Remaining() > 0 {
		tag := d.Uvarint()
		if d.Err() != nil {
			break
		}
		if tag <= prev {
			d.Fail("duplicate or out-of-order tag %d after %d", tag, prev) //lint:allow allocfree malformed-report error path; a valid stream never boxes these
			break
		}
		prev = tag
		switch tag {
		case tagAt:
			r.At = d.Time()
		case tagHost:
			r.Host = d.String()
		case tagVantage:
			r.Vantage = d.String()
		case tagClient:
			r.Client = d.Uvarint()
		case tagViolation:
			v := d.Uvarint()
			if d.Err() == nil && v >= uint64(NumViolations) {
				d.Fail("unknown violation %d", v) //lint:allow allocfree malformed-report error path; a valid stream never boxes this
			}
			r.Violation = Violation(v)
		case tagEnforce:
			r.Enforce = d.Bool()
		case tagThisUpdate:
			r.ThisUpdate = d.Time()
		case tagNextUpdate:
			r.NextUpdate = d.Time()
		default:
			d.Fail("unknown tag %d", tag) //lint:allow allocfree malformed-report error path; a valid stream never boxes this
		}
		seen |= 1 << tag
	}
	if err := d.Err(); err != nil {
		return Report{}, err
	}
	const required = 1<<tagAt | 1<<tagHost | 1<<tagViolation
	if seen&required != required {
		//lint:allow allocfree corrupt-report error path; the steady-state ingest never reaches it
		return Report{}, fmt.Errorf("expectstaple: report missing required fields (seen %#x)", seen)
	}
	return r, nil
}
