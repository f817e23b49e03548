package wire

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestInternTableDedupsAndCaps(t *testing.T) {
	it := NewInterns()
	a1 := it.Intern([]byte("vantage-1"))
	a2 := it.Intern([]byte("vantage-1"))
	if a1 != "vantage-1" || a2 != "vantage-1" {
		t.Fatalf("Intern returned %q, %q", a1, a2)
	}
	// Same backing string object, not just equal bytes.
	if unsafe.StringData(a1) != unsafe.StringData(a2) {
		t.Error("repeated Intern did not return the shared string")
	}
	// Past the cap the table stops remembering but stays correct.
	for i := 0; i < internsCap+16; i++ {
		v := []byte(fmt.Sprintf("v-%d", i))
		if got := it.Intern(v); got != string(v) {
			t.Fatalf("Intern(%q) = %q", v, got)
		}
	}
	if len(it.m) > internsCap {
		t.Errorf("table grew to %d entries, cap is %d", len(it.m), internsCap)
	}
}

// record encodes one value of every kind, in a fixed order.
func record(s string, v bool, t time.Time, i int64, u uint64, c byte) []byte {
	b := AppendString(nil, s)
	b = AppendBool(b, v)
	b = AppendTime(b, t)
	b = binary.AppendVarint(b, i)
	b = binary.AppendUvarint(b, u)
	return append(b, c)
}

func decodeRecord(b []byte, in *Interns) (s string, v bool, t time.Time, i int64, u uint64, c byte, err error) {
	d := NewDecoder(b, "test: ", in)
	s, v, t, i, u, c = d.String(), d.Bool(), d.Time(), d.Varint(), d.Uvarint(), d.Byte()
	return s, v, t, i, u, c, d.Err()
}

func TestDecoderRoundTrip(t *testing.T) {
	times := []time.Time{
		{},
		time.Unix(0, 0).UTC(),
		time.Date(2018, 4, 25, 13, 0, 0, 1, time.UTC),
		time.Unix(0, -12345).UTC(),
		minNanoTime.UTC(),
		maxNanoTime.UTC(),
		minNanoTime.Add(-1).UTC(),
		maxNanoTime.Add(1).UTC(),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(1600, 1, 1, 0, 0, 0, 999999999, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), // the zero time's neighbour
	}
	for _, in := range []*Interns{nil, NewInterns()} {
		for _, want := range times {
			b := record("eu-west", true, want, -7, 1<<40, 0xfe)
			s, v, got, i, u, c, err := decodeRecord(b, in)
			if err != nil {
				t.Fatalf("%v: decode: %v", want, err)
			}
			if s != "eu-west" || !v || i != -7 || u != 1<<40 || c != 0xfe {
				t.Fatalf("%v: fields decoded as %q %v %d %d %#x", want, s, v, i, u, c)
			}
			if got != want {
				t.Fatalf("time %v decoded as %v", want, got)
			}
		}
	}
}

// TestTimeEncodings pins the presence byte of each range: the narrow form
// for every time UnixNano holds, the wide form only beyond it.
func TestTimeEncodings(t *testing.T) {
	cases := []struct {
		t        time.Time
		presence byte
	}{
		{time.Time{}, timeZero},
		{time.Unix(1_600_000_000, 0), timeNanos},
		{minNanoTime, timeNanos},
		{maxNanoTime, timeNanos},
		{minNanoTime.Add(-1), timeWide},
		{maxNanoTime.Add(1), timeWide},
		{time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC), timeWide},
	}
	for _, c := range cases {
		if b := AppendTime(nil, c.t); b[0] != c.presence {
			t.Errorf("AppendTime(%v) presence %d, want %d", c.t, b[0], c.presence)
		}
	}
}

// TestDecoderRejects covers each malformation the conventions define; the
// error carries the decoder's prefix and the first error sticks.
func TestDecoderRejects(t *testing.T) {
	wide := func(sec int64, nsec uint64) []byte {
		return binary.AppendUvarint(binary.AppendVarint([]byte{timeWide}, sec), nsec)
	}
	overlong := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	cases := []struct {
		name string
		b    []byte
		read func(*Decoder)
		want string
	}{
		{"truncated varint", []byte{0x80}, func(d *Decoder) { d.Varint() }, "bad varint"},
		{"overlong varint", overlong, func(d *Decoder) { d.Varint() }, "bad varint"},
		{"overlong uvarint", overlong, func(d *Decoder) { d.Uvarint() }, "bad uvarint"},
		{"empty uvarint", nil, func(d *Decoder) { d.Uvarint() }, "bad uvarint"},
		{"string past end", []byte{5, 'a', 'b'}, func(d *Decoder) { _ = d.String() }, "string length 5 exceeds remaining 2"},
		{"truncated byte", nil, func(d *Decoder) { d.Byte() }, "truncated byte"},
		{"truncated bool", nil, func(d *Decoder) { d.Bool() }, "truncated bool"},
		{"bad bool", []byte{2}, func(d *Decoder) { d.Bool() }, "bad bool byte 2"},
		{"truncated time", nil, func(d *Decoder) { d.Time() }, "truncated time"},
		{"bad presence", []byte{3}, func(d *Decoder) { d.Time() }, "bad time presence byte 3"},
		{"truncated narrow time", []byte{timeNanos}, func(d *Decoder) { d.Time() }, "bad varint"},
		{"truncated wide time", wide(1<<40, 0)[:3], func(d *Decoder) { d.Time() }, "bad"},
		{"wide in-range time", wide(1_600_000_000, 0), func(d *Decoder) { d.Time() }, "non-canonical wide time"},
		{"wide zero time", wide(time.Time{}.Unix(), 0), func(d *Decoder) { d.Time() }, "non-canonical wide time"},
		{"wide nanoseconds overflow", wide(1<<40, 1e9), func(d *Decoder) { d.Time() }, "non-canonical wide time"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d := NewDecoder(c.b, "test: ", nil)
			c.read(&d)
			err := d.Err()
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.HasPrefix(err.Error(), "test: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want prefix %q and %q", err, "test: ", c.want)
			}
			// Sticky: later reads return zero values and keep the error.
			if d.Varint() != 0 || d.String() != "" || d.Bool() || !d.Time().IsZero() || d.Err() != err {
				t.Fatal("decoder kept reading after its first error")
			}
		})
	}
}

// TestDecoderRejectsEveryTruncation: every proper prefix of a record
// fails, whichever time encoding it carries.
func TestDecoderRejectsEveryTruncation(t *testing.T) {
	for _, at := range []time.Time{time.Unix(1_600_000_000, 5), time.Date(9999, 12, 31, 0, 0, 0, 5, time.UTC)} {
		b := record("host", false, at, 300, 300, 1)
		for n := 0; n < len(b); n++ {
			if _, _, _, _, _, _, err := decodeRecord(b[:n], nil); err == nil {
				t.Fatalf("%v: accepted a %d-byte prefix of %d bytes", at, n, len(b))
			}
		}
	}
}

func TestDecoderRemaining(t *testing.T) {
	d := NewDecoder(append(AppendString(nil, "ab"), 9, 9), "test: ", nil)
	if d.String() != "ab" || d.Remaining() != 2 {
		t.Fatalf("Remaining = %d after the string, want 2", d.Remaining())
	}
	d.Fail("custom %d", 7)
	d.Fail("second")
	if d.Err() == nil || d.Err().Error() != "test: custom 7" {
		t.Fatalf("Fail recorded %v, want the first call's error", d.Err())
	}
}
