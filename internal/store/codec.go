package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/wire"
)

// codecVersion is the observation payload format version, stored in each
// segment header. Bump when the field list below changes.
const codecVersion = 1

// errPrefix starts every decode error the store's codecs report.
const errPrefix = "store: "

// appendObservation appends the deterministic binary encoding of o to b.
// The field order is fixed and documented in DESIGN.md §11: At leads so
// recovery and truncation can read a record's round without decoding the
// rest. Strings, bools and times follow the internal/wire conventions;
// integers are varints.
func appendObservation(b []byte, o *scanner.Observation) []byte {
	b = wire.AppendTime(b, o.At)
	b = wire.AppendString(b, o.Vantage)
	b = wire.AppendString(b, o.Responder)
	b = wire.AppendString(b, o.Domain)
	b = binary.AppendVarint(b, int64(o.DomainWeight))
	b = wire.AppendString(b, o.Serial)
	b = binary.AppendVarint(b, int64(o.Latency))
	b = binary.AppendVarint(b, int64(o.Class))
	b = binary.AppendVarint(b, int64(o.HTTPStatus))
	b = binary.AppendVarint(b, int64(o.OCSPStatus))
	b = binary.AppendVarint(b, int64(o.Attempts))
	b = binary.AppendVarint(b, int64(o.FinalClass))
	b = wire.AppendBool(b, o.Salvaged)
	b = binary.AppendVarint(b, int64(o.CertStatus))
	b = wire.AppendTime(b, o.ProducedAt)
	b = wire.AppendTime(b, o.ThisUpdate)
	b = wire.AppendTime(b, o.NextUpdate)
	b = wire.AppendBool(b, o.HasNextUpdate)
	b = binary.AppendVarint(b, int64(o.NumCerts))
	b = binary.AppendVarint(b, int64(o.NumSerials))
	b = wire.AppendTime(b, o.RevokedAt)
	b = binary.AppendVarint(b, int64(o.Reason))
	b = binary.AppendVarint(b, int64(o.CacheMaxAge))
	return b
}

// decodeObservation decodes a payload produced by appendObservation. It
// never panics on corrupt input: every error is reported, including
// trailing garbage (a strict codec keeps the fuzz round-trip exact).
func decodeObservation(b []byte) (scanner.Observation, error) {
	return decodeObservationInterned(b, nil)
}

// decodeObservationInterned is decodeObservation with the scan-shared
// intern table threaded through; it is nil for one-shot decodes.
// BenchmarkStoreScan's allocs/record guard enforces the steady state at
// runtime; the //lint:allocfree contract enforces it at lint time.
//
//lint:allocfree
func decodeObservationInterned(b []byte, it *wire.Interns) (scanner.Observation, error) {
	d := wire.NewDecoder(b, errPrefix, it)
	var o scanner.Observation
	o.At = d.Time()
	o.Vantage = d.String()
	o.Responder = d.String()
	o.Domain = d.String()
	o.DomainWeight = int(d.Varint())
	o.Serial = d.String()
	o.Latency = time.Duration(d.Varint())
	o.Class = scanner.FailureClass(d.Varint())
	o.HTTPStatus = int(d.Varint())
	o.OCSPStatus = ocsp.ResponseStatus(d.Varint())
	o.Attempts = int(d.Varint())
	o.FinalClass = scanner.FailureClass(d.Varint())
	o.Salvaged = d.Bool()
	o.CertStatus = ocsp.CertStatus(d.Varint())
	o.ProducedAt = d.Time()
	o.ThisUpdate = d.Time()
	o.NextUpdate = d.Time()
	o.HasNextUpdate = d.Bool()
	o.NumCerts = int(d.Varint())
	o.NumSerials = int(d.Varint())
	o.RevokedAt = d.Time()
	o.Reason = pkixutil.ReasonCode(d.Varint())
	o.CacheMaxAge = int(d.Varint())
	if err := d.Err(); err != nil {
		return scanner.Observation{}, err
	}
	if n := d.Remaining(); n != 0 {
		//lint:allow allocfree corrupt-record error path; the steady-state scan never reaches it
		return scanner.Observation{}, fmt.Errorf("store: %d trailing bytes after observation", n)
	}
	return o, nil
}

// decodeRecordAt reads only the leading At field of a payload — enough
// for Open to check a record's round without a full decode.
func decodeRecordAt(b []byte) (int64, error) {
	d := wire.NewDecoder(b, errPrefix, nil)
	t := d.Time()
	if err := d.Err(); err != nil {
		return 0, err
	}
	return t.UnixNano(), nil
}
