package pkixutil

import (
	"encoding/asn1"
	"math"
	"math/big"
	"strconv"
	"time"
)

// The DER reader is the one parser on the OCSP and CRL paths, beside the
// writer in der.go. An Input is read from the front, like
// cryptobyte.String: each Read method consumes one field and reports
// success, and a copy of an Input is a saved position.
//
// Its contract is encoding/asn1.Unmarshal's on the wire structs it
// replaced (kept as the oracles in internal/ocsp/reference_test.go and
// internal/crl/reference_test.go): the same accept or reject verdict and
// the same values, quirks included.
// A Read method reads one field of a SEQUENCE the way Unmarshal reads one
// struct field:
//
//   - A field whose element has another tag is absent if optional and an
//     error if not; the input is left where the field began.
//   - An explicit [n] wrapper's length is not checked: the inner element
//     is read from the enclosing contents right after the wrapper's
//     header, and the field ends where the inner element ends.
//   - An explicit wrapper whose header ends the enclosing contents is an
//     error, whatever its tag.
//   - The elements after the last field of a SEQUENCE are the caller's to
//     ignore, as Unmarshal ignores them.
//
// The Read methods and the decoders that return no new memory allocate
// nothing; the contents they return alias the input. OCTET STRING
// contents that must outlive the input are the caller's to copy, as
// Unmarshal copies them into a []byte.

// Input is DER input, read from the front.
type Input []byte

// Element is one element read whole, as asn1.RawValue holds it.
type Element struct {
	Class   int   // 0 universal, 1 application, 2 context-specific, 3 private
	Tag     int   // the tag number
	Content Input // the contents octets
	Full    Input // the identifier, length and contents octets
}

// Identifier octets the reader matches besides the writer's tags.
const (
	TagBoolean = 0x01
	TagOID     = 0x06
)

// Field types that are not one identifier octet. Neither value is matched
// as an identifier.
const (
	// AnyTag matches every element, as an asn1.RawValue field does.
	AnyTag byte = 0xff
	// AnyTime matches a UTCTime or a GeneralizedTime, as a time.Time
	// field does whatever its struct tag asks for.
	AnyTime byte = 0xfe
)

const classContextSpecific = 2

// header is an element's identifier and length octets.
type header struct {
	id     byte // the first identifier octet: class, constructed bit, tag
	tag    int  // the tag number
	length int  // contents length, not yet checked against the input
	size   int  // identifier and length octets
}

func (h *header) class() int     { return int(h.id >> 6) }
func (h *header) compound() bool { return h.id&0x20 != 0 }

// readHeader reads the header at the front of s under encoding/asn1's
// rules: tag numbers from 31 up in minimal base 128, no indefinite
// length, and long-form lengths without leading zeros, of 128 or more
// and below 2^31.
//
//lint:allocfree
func readHeader(s []byte) (header, bool) {
	// Nearly every header is a low tag number and a short-form length.
	if len(s) >= 2 && s[0]&0x1f != 0x1f && s[1] < 0x80 {
		return header{id: s[0], tag: int(s[0] & 0x1f), length: int(s[1]), size: 2}, true
	}
	var h header
	if len(s) == 0 {
		return h, false
	}
	h.id = s[0]
	h.tag = int(s[0] & 0x1f)
	i := 1
	if h.tag == 0x1f {
		var ok bool
		if h.tag, i, ok = readBase128(s, 1); !ok || h.tag < 0x1f {
			return h, false
		}
	}
	if i >= len(s) {
		return h, false
	}
	b := s[i]
	i++
	if b&0x80 == 0 {
		h.length = int(b)
	} else {
		n := int(b & 0x7f)
		if n == 0 {
			return h, false
		}
		for ; n > 0; n-- {
			if i >= len(s) || h.length >= 1<<23 {
				return h, false
			}
			h.length = h.length<<8 | int(s[i])
			i++
			if h.length == 0 {
				return h, false
			}
		}
		if h.length < 0x80 {
			return h, false
		}
	}
	h.size = i
	return h, true
}

// readBase128 reads the base-128 integer starting at s[i], as a tag
// number or an OID arc: at most five octets, no leading 0x80, and no more
// than MaxInt32. It returns the value and the index after it.
//
//lint:allocfree
func readBase128(s []byte, i int) (int, int, bool) {
	var v int64
	for shifted := 0; i < len(s); shifted++ {
		if shifted == 5 {
			return 0, 0, false
		}
		b := s[i]
		if shifted == 0 && b == 0x80 {
			return 0, 0, false
		}
		v = v<<7 | int64(b&0x7f)
		i++
		if b&0x80 == 0 {
			if v > math.MaxInt32 {
				return 0, 0, false
			}
			return int(v), i, true
		}
	}
	return 0, 0, false
}

// matches reports whether h is an element of the field type want.
//
//lint:allocfree
func (h *header) matches(want byte) bool {
	switch want {
	case AnyTag:
		return true
	case AnyTime:
		return h.id == TagUTCTime || h.id == TagGeneralizedTime
	}
	return h.id == want
}

// field reads the next field of a SEQUENCE's contents, of type want and
// explicitly tagged [explicit] unless explicit is negative. It reports
// whether the field was present, and false for ok when the input is
// malformed or a required field is missing.
//
//lint:allocfree
func (s *Input) field(out *Element, explicit int, want byte, optional bool) (present, ok bool) {
	in := *s
	if len(in) == 0 {
		return false, optional
	}
	h, ok := readHeader(in)
	if !ok {
		return false, false
	}
	if explicit >= 0 {
		if h.size == len(in) { // a wrapper with no child, whatever its tag
			return false, false
		}
		if h.class() != classContextSpecific || h.tag != explicit || h.length > 0 && !h.compound() {
			return false, optional
		}
		// An explicitly tagged RawValue is the wrapper itself; any other
		// type is read from right after the wrapper's header, whatever
		// length the wrapper claims.
		if want != AnyTag {
			if h.length == 0 {
				return false, false
			}
			in = in[h.size:]
			if h, ok = readHeader(in); !ok {
				return false, false
			}
		}
	}
	if !h.matches(want) {
		return false, optional
	}
	if h.length > len(in)-h.size {
		return false, false
	}
	end := h.size + h.length
	*out = Element{Class: h.class(), Tag: h.tag, Content: in[h.size:end], Full: in[:end]}
	*s = in[end:]
	return true, true
}

// ReadElement reads a required field of type want into out.
//
//lint:allocfree
func (s *Input) ReadElement(out *Element, want byte) bool {
	present, ok := s.field(out, -1, want, false)
	return ok && present
}

// ReadOptionalElement reads an optional field of type want into out and
// sets *present. An absent field consumes nothing.
//
//lint:allocfree
func (s *Input) ReadOptionalElement(out *Element, present *bool, want byte) bool {
	var ok bool
	*present, ok = s.field(out, -1, want, true)
	return ok
}

// ReadOptionalExplicit reads an optional field of type want, explicitly
// tagged [n], into out and sets *present. For want AnyTag the element is
// the wrapper, as for an explicit RawValue; otherwise it is the inner
// element. An absent field consumes nothing.
//
//lint:allocfree
func (s *Input) ReadOptionalExplicit(out *Element, present *bool, n int, want byte) bool {
	var ok bool
	*present, ok = s.field(out, n, want, true)
	return ok
}

// CountElements checks s, the contents of a SEQUENCE OF, as
// encoding/asn1 does before decoding any element: every element has a
// well-formed header, is of type want and fits. It returns their number.
//
//lint:allocfree
func (s Input) CountElements(want byte) (int, bool) {
	n := 0
	for len(s) > 0 {
		h, ok := readHeader(s)
		if !ok || !h.matches(want) || h.length > len(s)-h.size {
			return 0, false
		}
		s = s[h.size+h.length:]
		n++
	}
	return n, true
}

// ReadAlgorithmIdentifier reads an AlgorithmIdentifier SEQUENCE and sets
// *oid to its algorithm's OBJECT IDENTIFIER contents. The parameters,
// if any, must be one well-formed element; what follows them is ignored.
//
//lint:allocfree
func (s *Input) ReadAlgorithmIdentifier(oid *Input) bool {
	var seq, id, params Element
	var present bool
	if !s.ReadElement(&seq, TagSequence) {
		return false
	}
	if !seq.Content.ReadElement(&id, TagOID) || !id.Content.ValidOID() {
		return false
	}
	*oid = id.Content
	return seq.Content.ReadOptionalElement(&params, &present, AnyTag)
}

// ReadExtension reads one Extension of an Extensions SEQUENCE OF and sets
// *oid and *value to its extnID and extnValue contents:
//
//	Extension ::= SEQUENCE { extnID OBJECT IDENTIFIER,
//	                         critical BOOLEAN DEFAULT FALSE,
//	                         extnValue OCTET STRING }
//
// The critical flag is checked, not returned; what follows extnValue is
// ignored.
//
//lint:allocfree
func (s *Input) ReadExtension(oid, value *Input) bool {
	var ext, id, critical, val Element
	var present bool
	if !s.ReadElement(&ext, TagSequence) ||
		!ext.Content.ReadElement(&id, TagOID) || !id.Content.ValidOID() ||
		!ext.Content.ReadOptionalElement(&critical, &present, TagBoolean) ||
		!ext.Content.ReadElement(&val, TagOctetString) {
		return false
	}
	if present {
		if _, ok := critical.Content.Boolean(); !ok {
			return false
		}
	}
	*oid, *value = id.Content, val.Content
	return true
}

// validInteger reports whether c is the contents of a DER INTEGER as
// encoding/asn1 accepts it: not empty, and minimal.
//
//lint:allocfree
func (c Input) validInteger() bool {
	if len(c) == 0 {
		return false
	}
	return len(c) == 1 || !(c[0] == 0 && c[1]&0x80 == 0 || c[0] == 0xff && c[1]&0x80 != 0)
}

// smallInt decodes c as an INTEGER that fits an int64.
//
//lint:allocfree
func (c Input) smallInt() (int64, bool) {
	if !c.validInteger() || len(c) > 8 {
		return 0, false
	}
	var v int64
	for _, b := range c {
		v = v<<8 | int64(b)
	}
	// Sign-extend from the top bit of c[0].
	shift := 64 - uint(len(c))*8
	return v << shift >> shift, true
}

// Int decodes c as an INTEGER that fits an int, as encoding/asn1 fills an
// int field: int64 on 64-bit platforms, int32 on 32-bit ones.
//
//lint:allocfree
func (c Input) Int() (int, bool) {
	v, ok := c.smallInt()
	if !ok || strconv.IntSize == 32 && v != int64(int32(v)) {
		return 0, false
	}
	return int(v), true
}

// Enum decodes c as an ENUMERATED, which encoding/asn1 holds in an int32.
//
//lint:allocfree
func (c Input) Enum() (int, bool) {
	v, ok := c.smallInt()
	if !ok || v != int64(int32(v)) {
		return 0, false
	}
	return int(v), true
}

// Integer sets out to c decoded as an INTEGER of any size, by the same
// steps as encoding/asn1, so out's internal form matches too.
func (c Input) Integer(out *big.Int) bool {
	if !c.validInteger() {
		return false
	}
	if c[0]&0x80 == 0 {
		out.SetBytes(c)
		return true
	}
	// A negative value is −(^c + 1).
	not := make([]byte, len(c))
	for i, b := range c {
		not[i] = ^b
	}
	out.SetBytes(not).Add(out, one).Neg(out)
	return true
}

var one = big.NewInt(1)

// ValidOID reports whether c is the contents of an OBJECT IDENTIFIER as
// encoding/asn1 accepts it. Arcs are minimal, so two valid contents name
// the same identifier exactly when their octets are equal.
//
//lint:allocfree
func (c Input) ValidOID() bool {
	if len(c) == 0 {
		return false
	}
	for i := 0; i < len(c); {
		var ok bool
		if _, i, ok = readBase128(c, i); !ok {
			return false
		}
	}
	return true
}

// ObjectIdentifier decodes c as an OBJECT IDENTIFIER.
func (c Input) ObjectIdentifier() (asn1.ObjectIdentifier, bool) {
	if !c.ValidOID() {
		return nil, false
	}
	// The first arc packs the first two: 40·a + b, with a ≤ 2.
	v, i, _ := readBase128(c, 0)
	oid := make(asn1.ObjectIdentifier, 2, len(c)+1)
	if v < 80 {
		oid[0], oid[1] = v/40, v%40
	} else {
		oid[0], oid[1] = 2, v-80
	}
	for i < len(c) {
		v, i, _ = readBase128(c, i)
		oid = append(oid, v)
	}
	return oid, true
}

// BitString decodes c as a BIT STRING: a count of unused bits from 0 to
// 7, which must be zero bits. The bytes alias c.
//
//lint:allocfree
func (c Input) BitString() (asn1.BitString, bool) {
	if len(c) == 0 {
		return asn1.BitString{}, false
	}
	pad := int(c[0])
	if pad > 7 || len(c) == 1 && pad > 0 || c[len(c)-1]&(1<<pad-1) != 0 {
		return asn1.BitString{}, false
	}
	return asn1.BitString{Bytes: c[1:], BitLength: (len(c)-1)*8 - pad}, true
}

// Boolean decodes c as a DER BOOLEAN: one octet, 0x00 or 0xff.
//
//lint:allocfree
func (c Input) Boolean() (bool, bool) {
	if len(c) != 1 || c[0] != 0 && c[0] != 0xff {
		return false, false
	}
	return c[0] == 0xff, true
}

// Time decodes e, a UTCTime or a GeneralizedTime, to the time.Time
// encoding/asn1 gives. The forms every responder and CA writes,
// YYYYMMDDHHMMSSZ and YYMMDDHHMMSSZ, are decoded directly; any other
// goes through time.Parse and must format back to its own octets, as in
// encoding/asn1.
func (e *Element) Time() (time.Time, bool) {
	// A universal primitive's tag number is its identifier octet.
	generalized := e.Tag == TagGeneralizedTime
	if t, ok := fixedTimeUTC(e.Content, generalized); ok {
		return t, true
	}
	if generalized {
		return parseTime(e.Content, "20060102150405.999999999Z0700")
	}
	// UTCTime: seconds are optional, and years run 1950 to 2049
	// (RFC 5280 §4.1.2.5.1).
	s := string(e.Content)
	layout := "0601021504Z0700"
	t, err := time.Parse(layout, s)
	if err != nil {
		layout = "060102150405Z0700"
		t, err = time.Parse(layout, s)
	}
	if err != nil || t.Format(layout) != s {
		return time.Time{}, false
	}
	if t.Year() >= 2050 {
		t = t.AddDate(-100, 0, 0)
	}
	return t, true
}

// fixedTimeUTC decodes c when it is a valid YYYYMMDDHHMMSSZ (generalized)
// or YYMMDDHHMMSSZ, and otherwise reports false, leaving the verdict to
// time.Parse. A two-digit year is one of 1950–2049.
//
//lint:allocfree
func fixedTimeUTC(c Input, generalized bool) (time.Time, bool) {
	widths := [...]int{4, 2, 2, 2, 2, 2}
	if !generalized {
		widths[0] = 2
	}
	if len(c) != widths[0]+11 || c[len(c)-1] != 'Z' {
		return time.Time{}, false
	}
	var f [6]int // year, month, day, hour, minute, second
	for i, w := range widths {
		for _, d := range c[:w] {
			if d < '0' || d > '9' {
				return time.Time{}, false
			}
			f[i] = f[i]*10 + int(d-'0')
		}
		c = c[w:]
	}
	if !generalized {
		f[0] += 1900
		if f[0] < 1950 {
			f[0] += 100
		}
	}
	if f[1] < 1 || f[1] > 12 || f[3] > 23 || f[4] > 59 || f[5] > 59 {
		return time.Time{}, false
	}
	t := time.Date(f[0], time.Month(f[1]), f[2], f[3], f[4], f[5], 0, time.UTC)
	if t.Day() != f[2] { // day 0, or past the end of the month
		return time.Time{}, false
	}
	return t, true
}

// parseTime is encoding/asn1's time parse: layout must read all of c
// and format the result back to c.
func parseTime(c Input, layout string) (time.Time, bool) {
	s := string(c)
	t, err := time.Parse(layout, s)
	if err != nil || t.Format(layout) != s {
		return time.Time{}, false
	}
	return t, true
}
