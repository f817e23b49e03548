package store

import (
	"fmt"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"github.com/netmeasure/muststaple/internal/ocsp"
	"github.com/netmeasure/muststaple/internal/pkixutil"
	"github.com/netmeasure/muststaple/internal/scanner"
)

// fullObservation exercises every codec field with non-zero values.
func fullObservation() scanner.Observation {
	at := time.Date(2018, 4, 25, 13, 0, 0, 0, time.UTC)
	return scanner.Observation{
		Vantage:       "eu-west",
		Responder:     "ocsp.example.net",
		Domain:        "example.net",
		DomainWeight:  42,
		Serial:        "04:8f:22",
		At:            at,
		Latency:       137 * time.Millisecond,
		Class:         scanner.ClassOK,
		HTTPStatus:    200,
		OCSPStatus:    ocsp.StatusSuccessful,
		Attempts:      2,
		FinalClass:    scanner.ClassOK,
		Salvaged:      true,
		CertStatus:    ocsp.Revoked,
		ProducedAt:    at.Add(-10 * time.Minute),
		ThisUpdate:    at.Add(-time.Hour),
		NextUpdate:    at.Add(6 * time.Hour),
		HasNextUpdate: true,
		NumCerts:      1,
		NumSerials:    3,
		RevokedAt:     at.Add(-30 * 24 * time.Hour),
		Reason:        pkixutil.ReasonKeyCompromise,
		CacheMaxAge:   3600,
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := map[string]scanner.Observation{
		"full": fullObservation(),
		"zero": {},
		"failure": {
			Vantage:     "us-east",
			Responder:   "ocsp.broken.example",
			At:          time.Unix(0, 1524661200000000001).UTC(),
			Latency:     2 * time.Second,
			Class:       scanner.ClassTCP,
			Attempts:    3,
			FinalClass:  scanner.ClassTCP,
			CacheMaxAge: -1,
		},
		"negative-varints": {
			DomainWeight: -7,
			Latency:      -time.Millisecond,
			CacheMaxAge:  -1,
			At:           time.Unix(0, -12345).UTC(),
		},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			payload := appendObservation(nil, &want)
			got, err := decodeObservation(payload)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestCodecRejectsTrailingBytes(t *testing.T) {
	o := fullObservation()
	payload := appendObservation(nil, &o)
	if _, err := decodeObservation(append(payload, 0)); err == nil {
		t.Fatal("decode accepted a payload with trailing garbage")
	}
}

func TestCodecRejectsEveryTruncation(t *testing.T) {
	o := fullObservation()
	payload := appendObservation(nil, &o)
	for n := 0; n < len(payload); n++ {
		if _, err := decodeObservation(payload[:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte prefix of a %d-byte payload", n, len(payload))
		}
	}
}

func TestDecodeRecordAt(t *testing.T) {
	o := fullObservation()
	payload := appendObservation(nil, &o)
	at, err := decodeRecordAt(payload)
	if err != nil {
		t.Fatalf("decodeRecordAt: %v", err)
	}
	if at != o.At.UnixNano() {
		t.Fatalf("decodeRecordAt = %d, want %d", at, o.At.UnixNano())
	}
}

// FuzzRecordRoundTrip feeds arbitrary bytes through the decoder (it must
// never panic, and every accepted payload must re-encode byte-identically)
// and seeds the corpus with real encodings.
func FuzzRecordRoundTrip(f *testing.F) {
	o := fullObservation()
	f.Add(appendObservation(nil, &o))
	var zero scanner.Observation
	f.Add(appendObservation(nil, &zero))
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0x80}) // truncated varint after a time presence byte
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeObservation(payload)
		if err != nil {
			return
		}
		// Any accepted payload must re-encode to something that decodes
		// back to the same observation. (Byte identity is too strong:
		// binary.Uvarint tolerates overlong varints.)
		re := appendObservation(nil, &got)
		if len(re) > len(payload) {
			t.Fatalf("re-encoding grew from %d to %d bytes", len(payload), len(re))
		}
		again, err := decodeObservation(re)
		if err != nil {
			t.Fatalf("re-encoded payload failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("value round trip unstable:\n got %+v\nwant %+v", again, got)
		}
	})
}

func TestInternTableDedupsAndCaps(t *testing.T) {
	it := newInternTable()
	a1 := it.intern([]byte("vantage-1"))
	a2 := it.intern([]byte("vantage-1"))
	if a1 != "vantage-1" || a2 != "vantage-1" {
		t.Fatalf("intern returned %q, %q", a1, a2)
	}
	// Same backing string object, not just equal bytes.
	if unsafe.StringData(a1) != unsafe.StringData(a2) {
		t.Error("repeated intern did not return the shared string")
	}
	// Past the cap the table stops remembering but stays correct.
	for i := 0; i < internTableCap+16; i++ {
		v := []byte(fmt.Sprintf("v-%d", i))
		if got := it.intern(v); got != string(v) {
			t.Fatalf("intern(%q) = %q", v, got)
		}
	}
	if len(it.m) > internTableCap {
		t.Errorf("table grew to %d entries, cap is %d", len(it.m), internTableCap)
	}
}

func TestDecodeObservationInternedMatchesPlain(t *testing.T) {
	variant := fullObservation()
	variant.Vantage = "ap-south"
	variant.Serial = ""
	obs := []scanner.Observation{fullObservation(), {}, variant, fullObservation()}
	it := newInternTable()
	for i, o := range obs {
		payload := appendObservation(nil, &o)
		plain, err := decodeObservation(payload)
		if err != nil {
			t.Fatalf("obs %d: %v", i, err)
		}
		interned, err := decodeObservationInterned(payload, it)
		if err != nil {
			t.Fatalf("obs %d interned: %v", i, err)
		}
		if !reflect.DeepEqual(plain, interned) {
			t.Errorf("obs %d: interned decode diverges:\nplain    %+v\ninterned %+v", i, plain, interned)
		}
	}
}
