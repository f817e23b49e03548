package pkixutil

import (
	"encoding/asn1"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"slices"
	"time"
)

// The DER writer is the one encoder on the responder's signing path. It
// appends elements to a byte slice instead of reflecting over wire
// structs, and its output is byte-identical to encoding/asn1.Marshal of
// the equivalent struct: minimal lengths, minimal two's-complement
// integers, and GeneralizedTime in UTC with whole seconds. The codecs
// keep an encoding/asn1 reference encoder in their tests and fuzz the two
// against each other.
//
// Every Append function returns the extended slice, like append. Begin
// and End frame a constructed element whose size is not known up front:
// Begin writes the tag and a one-byte length placeholder, End back-patches
// the length and, for contents of 128 bytes or more, shifts them right to
// make room for the long form. Callers that know the sizes write exact
// headers with AppendHeader instead and never shift.
//
// The put helpers write into space the caller has already reserved and
// allocate nothing; grow is the writer's only allocation site.

// Universal and context-specific tags the codecs emit.
const (
	TagInteger          = 0x02
	TagBitString        = 0x03
	TagOctetString      = 0x04
	TagEnumerated       = 0x0a
	TagGeneralizedTime  = 0x18
	TagSequence         = 0x30
	TagContextPrimitive = 0x80 // | n: implicit [n], primitive
	TagContextExplicit  = 0xa0 // | n: explicit or constructed [n]
)

// generalizedTimeLen is the size of YYYYMMDDHHMMSSZ.
const generalizedTimeLen = 15

var errGeneralizedTimeRange = errors.New("pkixutil: cannot represent time as GeneralizedTime")

// grow extends b by n bytes and returns the extended slice and its n-byte
// tail. It reallocates only when b lacks the capacity.
func grow(b []byte, n int) ([]byte, []byte) {
	b = slices.Grow(b, n)
	b = b[:len(b)+n]
	return b, b[len(b)-n:]
}

// lengthLen returns the number of octets in the DER length of n.
//
//lint:allocfree
func lengthLen(n int) int {
	if n < 0x80 {
		return 1
	}
	k := 1
	for n > 0xff {
		k++
		n >>= 8
	}
	return 1 + k
}

// putLength writes the DER length octets of n to dst and returns how many
// it wrote.
//
//lint:allocfree
func putLength(dst []byte, n int) int {
	if n < 0x80 {
		dst[0] = byte(n)
		return 1
	}
	k := lengthLen(n) - 1
	dst[0] = 0x80 | byte(k)
	for i := k; i > 0; i-- {
		dst[i] = byte(n)
		n >>= 8
	}
	return k + 1
}

// putHeader writes the tag and length of an element with n content bytes
// to dst and returns how many octets it wrote.
//
//lint:allocfree
func putHeader(dst []byte, tag byte, n int) int {
	dst[0] = tag
	return 1 + putLength(dst[1:], n)
}

// HeaderLen returns the size of the tag and length octets of an element
// with n content bytes.
//
//lint:allocfree
func HeaderLen(n int) int { return 1 + lengthLen(n) }

// AppendHeader appends the tag and length of an element with n content
// bytes; the caller appends exactly n content bytes next.
func AppendHeader(b []byte, tag byte, n int) []byte {
	b, dst := grow(b, HeaderLen(n))
	putHeader(dst, tag, n)
	return b
}

// AppendElement appends a whole element: tag, length and content.
func AppendElement(b []byte, tag byte, content []byte) []byte {
	b = AppendHeader(b, tag, len(content))
	return append(b, content...)
}

// AppendBitString appends a BIT STRING holding whole bytes (no unused
// bits), the form signatures take.
func AppendBitString(b, bits []byte) []byte {
	b = AppendHeader(b, TagBitString, 1+len(bits))
	b = append(b, 0)
	return append(b, bits...)
}

// Begin opens a constructed element of unknown size: it appends tag and a
// one-byte length placeholder and returns the offset where the contents
// start, which End takes.
func Begin(b []byte, tag byte) ([]byte, int) {
	b = append(b, tag, 0)
	return b, len(b)
}

// End closes the element Begin opened at start, writing its length.
func End(b []byte, start int) []byte {
	n := len(b) - start
	if ll := lengthLen(n); ll > 1 {
		b, _ = grow(b, ll-1)
		copy(b[start+ll-1:], b[start:start+n])
	}
	putLength(b[start-1:], n)
	return b
}

// IntegerLen returns the content length of x as a DER INTEGER: the
// minimal two's-complement form, as encoding/asn1 writes it. A positive
// x needs a leading 0x00 when its top bit is set; a negative x is stored
// as the inverted bytes of |x|−1, with a leading 0xff when their top bit
// is clear. Both come to BitLen/8 + 1 of the magnitude that is written.
//
//lint:allocfree
func IntegerLen(x *big.Int) int {
	switch x.Sign() {
	case 0:
		return 1
	case 1:
		return x.BitLen()/8 + 1
	}
	bits := x.BitLen() // of |x|; |x|−1 is one bit shorter iff |x| is a power of two
	if x.TrailingZeroBits() == uint(bits-1) {
		bits--
	}
	return bits/8 + 1
}

// putIntegerBytes writes the IntegerLen(x) content bytes of x to dst.
// A negative x is |x| in two's complement over len(dst) bytes, which
// equals the inverted bytes of |x|−1.
//
//lint:allocfree
func putIntegerBytes(dst []byte, x *big.Int) {
	// |x| big-endian, zero-padded: the little-endian words of x.Bits()
	// fill dst from its end.
	clear(dst)
	i := len(dst) - 1
	for _, w := range x.Bits() {
		for j := 0; j < bits.UintSize/8 && i >= 0; j++ {
			dst[i] = byte(w)
			w >>= 8
			i--
		}
	}
	if x.Sign() >= 0 {
		return
	}
	carry := true
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = ^dst[i]
		if carry {
			dst[i]++
			carry = dst[i] == 0
		}
	}
}

// AppendInteger appends x as a DER INTEGER.
func AppendInteger(b []byte, x *big.Int) []byte {
	n := IntegerLen(x)
	b, dst := grow(b, HeaderLen(n)+n)
	h := putHeader(dst, TagInteger, n)
	putIntegerBytes(dst[h:], x)
	return b
}

// int64Len returns the content length of v in minimal two's complement.
func int64Len(v int64) int {
	n := 1
	for v > 127 {
		n++
		v >>= 8
	}
	for v < -128 {
		n++
		v >>= 8
	}
	return n
}

// AppendEnumerated appends v as a DER ENUMERATED, in minimal two's
// complement.
func AppendEnumerated(b []byte, v int64) []byte {
	n := int64Len(v)
	b, dst := grow(b, HeaderLen(n)+n)
	h := putHeader(dst, TagEnumerated, n)
	for j := 0; j < n; j++ {
		dst[h+j] = byte(v >> uint((n-1-j)*8))
	}
	return b
}

// putGeneralizedTime writes t as YYYYMMDDHHMMSSZ to dst, in UTC with any
// fraction of a second dropped. Years outside 0–9999 are an error, as in
// encoding/asn1.
//
//lint:allocfree
func putGeneralizedTime(dst []byte, t time.Time) error {
	year, month, day := t.UTC().Date()
	if year < 0 || year > 9999 {
		return errGeneralizedTimeRange
	}
	hour, min, sec := t.UTC().Clock()
	putDigits(dst[0:4], year)
	putDigits(dst[4:6], int(month))
	putDigits(dst[6:8], day)
	putDigits(dst[8:10], hour)
	putDigits(dst[10:12], min)
	putDigits(dst[12:14], sec)
	dst[14] = 'Z'
	return nil
}

// putDigits writes v as len(dst) zero-padded decimal digits.
//
//lint:allocfree
func putDigits(dst []byte, v int) {
	for i := len(dst) - 1; i >= 0; i-- {
		dst[i] = byte('0' + v%10)
		v /= 10
	}
}

// AppendGeneralizedTime appends t as a DER GeneralizedTime (see
// putGeneralizedTime). On error b is returned unchanged.
func AppendGeneralizedTime(b []byte, t time.Time) ([]byte, error) {
	b, dst := grow(b, 2+generalizedTimeLen)
	dst[0], dst[1] = TagGeneralizedTime, generalizedTimeLen
	if err := putGeneralizedTime(dst[2:], t); err != nil {
		return b[:len(b)-len(dst)], err
	}
	return b, nil
}

// mustDER is the one-time setup of the precomputed DER below.
func mustDER(v any) []byte {
	der, err := asn1.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("pkixutil: marshal %v: %v", v, err))
	}
	return der
}

// Precomputed DER of the object identifiers the OCSP encoders emit on
// every call.
var (
	OIDOCSPBasicDER = mustDER(OIDOCSPBasic)
	OIDOCSPNonceDER = mustDER(OIDOCSPNonce)
)
