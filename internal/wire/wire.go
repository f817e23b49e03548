// Package wire holds the binary record conventions shared by the
// repository's durable codecs — the observation store's records and the
// Expect-Staple report stream:
//
//   - a string is a uvarint length followed by its bytes;
//   - a bool is one byte that must be 0 or 1;
//   - a time is a presence byte: 0 is the zero time.Time, 1 is followed by
//     a varint UnixNano, and 2 — only for times UnixNano cannot hold
//     (before 1678 or after 2262) — by a varint of Unix seconds and a
//     uvarint of nanoseconds.
//
// Each codec keeps its own field layout; wire supplies the appenders, a
// sticky-error Decoder, and the capped Interns table that keeps steady-
// state decoding free of allocations. See DESIGN.md §11 and §22.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// AppendString appends s, uvarint-length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// The presence byte of an encoded time.
const (
	timeZero  = 0 // time.Time{}: outside the UnixNano range, so it has its own value
	timeNanos = 1 // varint UnixNano
	timeWide  = 2 // varint Unix seconds, uvarint nanoseconds
)

// The instants UnixNano can represent; outside them its result is
// undefined, so such times take the wide encoding.
var (
	minNanoTime = time.Unix(0, math.MinInt64)
	maxNanoTime = time.Unix(0, math.MaxInt64)
)

func nanoRange(t time.Time) bool { return !t.Before(minNanoTime) && !t.After(maxNanoTime) }

// AppendTime appends t as a presence byte plus its instant. It decodes
// back to the same instant in UTC; the zero time.Time decodes to exactly
// time.Time{}.
func AppendTime(b []byte, t time.Time) []byte {
	switch {
	case t.IsZero():
		return append(b, timeZero)
	case nanoRange(t):
		b = append(b, timeNanos)
		return binary.AppendVarint(b, t.UnixNano())
	}
	b = append(b, timeWide)
	b = binary.AppendVarint(b, t.Unix())
	return binary.AppendUvarint(b, uint64(t.Nanosecond()))
}

// Decoder is a cursor over one encoded record. The first error sticks and
// turns every later read into a no-op returning the zero value, so a
// codec reads its fields in a straight line and checks Err once.
type Decoder struct {
	b       []byte
	off     int
	err     error
	prefix  string
	interns *Interns
}

// NewDecoder returns a decoder over b whose errors start with prefix (the
// codec's own, e.g. "store: "). With a non-nil interns table, String
// returns one shared string per distinct value; with nil, every String
// call allocates its result.
func NewDecoder(b []byte, prefix string, interns *Interns) Decoder {
	return Decoder{b: b, prefix: prefix, interns: interns}
}

// Err returns the first error the decoder met, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of bytes not yet read.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Fail records a codec-level error (a field the layout rejects) unless
// one is already recorded.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(d.prefix+format, args...)
	}
}

// Varint reads a zigzag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// String reads a length-prefixed string. With an intern table, a
// previously seen value is a zero-allocation map probe; only one-shot
// decodes (nil table) materialize a fresh string per call.
//
//lint:allocfree
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.Fail("string length %d exceeds remaining %d bytes", n, len(d.b)-d.off) //lint:allow allocfree corrupt-record error path; the steady-state decode never reaches it
		return ""
	}
	raw := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	if d.interns != nil {
		return d.interns.Intern(raw) //lint:allow allocfree the inlined Intern allocates on first sight only; the capped table amortizes it to zero across a stream
	}
	return string(raw) //lint:allow allocfree one-shot decode path (nil intern table); every stream decoder threads the table and hits the zero-alloc probe
}

// Byte reads one uninterpreted byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.Fail("truncated byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a bool byte, rejecting anything but 0 and 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.b) {
		d.Fail("truncated bool at offset %d", d.off)
		return false
	}
	v := d.b[d.off]
	d.off++
	if v > 1 {
		d.Fail("bad bool byte %d at offset %d", v, d.off-1)
		return false
	}
	return v == 1
}

// Time reads a time written by AppendTime. A wide encoding of a time the
// narrow one can hold is rejected, so every accepted time has exactly one
// encoding.
func (d *Decoder) Time() time.Time {
	if d.err != nil {
		return time.Time{}
	}
	if d.off >= len(d.b) {
		d.Fail("truncated time at offset %d", d.off)
		return time.Time{}
	}
	presence := d.b[d.off]
	d.off++
	switch presence {
	case timeZero:
		return time.Time{}
	case timeNanos:
		return time.Unix(0, d.Varint()).UTC()
	case timeWide:
		at := d.off - 1
		sec, nsec := d.Varint(), d.Uvarint()
		if d.err != nil {
			return time.Time{}
		}
		if nsec < 1e9 {
			if t := time.Unix(sec, int64(nsec)).UTC(); !t.IsZero() && !nanoRange(t) {
				return t
			}
		}
		d.Fail("non-canonical wide time at offset %d", at)
		return time.Time{}
	}
	d.Fail("bad time presence byte %d at offset %d", presence, d.off-1)
	return time.Time{}
}

// Interns deduplicates decoded strings across the records of one stream
// (a store scan, a collector's ingest). Observation and report streams
// repeat the same vantages, responders and hosts heavily, so handing
// back one shared string per distinct value cuts decoding from one
// allocation per string field to one per distinct value. The table is
// capped: a stream of unbounded distinct values (random serials, a
// hostile stream of hostnames) degrades to plain allocation instead of
// growing the table forever. An Interns is not safe for concurrent use.
type Interns struct {
	m map[string]string
}

// internsCap bounds the distinct values remembered per table. 4096
// covers real campaigns (vantages × responders × domains in the
// thousands) at well under a megabyte.
const internsCap = 4096

// NewInterns returns an empty table.
func NewInterns() *Interns {
	return &Interns{m: make(map[string]string, 64)}
}

// Intern returns the canonical string for b, allocating only on first
// sight. The m[string(b)] lookup compiles to a no-allocation map probe.
//
//lint:allocfree
func (t *Interns) Intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b) //lint:allow allocfree first sight of a value only; the capped table amortizes this to zero across a stream
	if len(t.m) < internsCap {
		t.m[s] = s
	}
	return s
}
