package expectstaple

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/netmeasure/muststaple/internal/wire"
)

func randomReport(rng *rand.Rand) Report {
	hosts := []string{"a.test", "shop.example.test", "x.y.z.example"}
	vantages := []string{"Oregon", "Paris", "Seoul", ""}
	r := Report{
		At:        time.Unix(rng.Int63n(1<<33), int64(rng.Intn(1e9))).UTC(),
		Host:      hosts[rng.Intn(len(hosts))],
		Vantage:   vantages[rng.Intn(len(vantages))],
		Client:    rng.Uint64(),
		Violation: Violation(rng.Intn(NumViolations)),
		Enforce:   rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		r.ThisUpdate = time.Unix(rng.Int63n(1<<33), 0).UTC()
		r.NextUpdate = r.ThisUpdate.Add(time.Duration(rng.Intn(100)) * time.Hour)
	}
	return r
}

// TestReportRoundTrip is the codec property test (the report-stream
// mirror of the store's FuzzRecordRoundTrip): encode∘decode is identity,
// and the encoding is canonical — re-encoding the decoded report
// reproduces the same bytes.
func TestReportRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		want := randomReport(rng)
		enc := AppendReport(nil, &want)
		got, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("iteration %d: decode: %v (report %+v)", i, err, want)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: round trip mismatch:\n got %+v\nwant %+v", i, got, want)
		}
		re := AppendReport(nil, &got)
		if !bytes.Equal(re, enc) {
			t.Fatalf("iteration %d: encoding not canonical", i)
		}
	}
}

// TestReportRoundTripInterned pins that the interned decode path agrees
// with the plain one.
func TestReportRoundTripInterned(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	it := wire.NewInterns()
	for i := 0; i < 500; i++ {
		want := randomReport(rng)
		enc := AppendReport(nil, &want)
		got, err := decodeReportInterned(enc, it)
		if err != nil {
			t.Fatalf("interned decode: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interned round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// farTimesReport carries a staple window outside the range UnixNano can
// represent: a thisUpdate before 1678 and a nextUpdate of 9999-12-31.
func farTimesReport() Report {
	return Report{
		At:         time.Unix(1_600_000_000, 0).UTC(),
		Host:       "a.test",
		Violation:  ViolationRevoked,
		ThisUpdate: time.Date(1601, 1, 1, 0, 0, 0, 500, time.UTC),
		NextUpdate: time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
	}
}

// TestReportRoundTripFarTimes: the far window round-trips exactly instead
// of being rewritten to a time inside 1678–2262.
func TestReportRoundTripFarTimes(t *testing.T) {
	want := farTimesReport()
	got, err := DecodeReport(AppendReport(nil, &want))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeReportRejectsMalformations(t *testing.T) {
	valid := AppendReport(nil, &Report{
		At: time.Unix(1_600_000_000, 0).UTC(), Host: "a.test", Violation: ViolationMissing,
	})
	if _, err := DecodeReport(valid); err != nil {
		t.Fatalf("control decode failed: %v", err)
	}

	// Truncations either fail cleanly (mid-field, or before the required
	// set is complete) or — when the cut lands on a field boundary past
	// tagViolation — decode to a report agreeing on every required field.
	want, _ := DecodeReport(valid)
	for n := 0; n < len(valid); n++ {
		got, err := DecodeReport(valid[:n])
		if err != nil {
			continue
		}
		if got.At != want.At || got.Host != want.Host || got.Violation != want.Violation {
			t.Fatalf("truncation to %d bytes decoded to a different report: %+v", n, got)
		}
	}

	// Trailing bytes look like a tag <= the last one: rejected.
	if _, err := DecodeReport(append(append([]byte(nil), valid...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}

	// Duplicate field: re-append an already-seen tag.
	dup := append(append([]byte(nil), valid...), byte(tagHost))
	dup = wire.AppendString(dup, "b.test")
	if _, err := DecodeReport(dup); err == nil {
		t.Fatal("duplicate tag accepted")
	}

	// Unknown tag.
	unk := append(append([]byte(nil), valid...), byte(tagEnd))
	unk = binary.AppendUvarint(unk, 1)
	if _, err := DecodeReport(unk); err == nil {
		t.Fatal("unknown tag accepted")
	}

	// Missing required fields: version byte only.
	if _, err := DecodeReport([]byte{reportCodecVersion}); err == nil {
		t.Fatal("empty report accepted")
	}

	// Wrong codec version.
	bad := append([]byte(nil), valid...)
	bad[0] = reportCodecVersion + 1
	if _, err := DecodeReport(bad); err == nil {
		t.Fatal("future codec version accepted")
	}

	// Out-of-range violation.
	oov := binary.AppendUvarint([]byte{reportCodecVersion}, tagAt)
	oov = wire.AppendTime(oov, time.Unix(1, 0))
	oov = binary.AppendUvarint(oov, tagHost)
	oov = wire.AppendString(oov, "a.test")
	oov = binary.AppendUvarint(oov, tagViolation)
	oov = binary.AppendUvarint(oov, uint64(NumViolations))
	if _, err := DecodeReport(oov); err == nil {
		t.Fatal("out-of-range violation accepted")
	}
}

// FuzzReportDecode fuzzes the wire decoder: any input must either decode
// to a report whose canonical re-encoding decodes identically, or fail —
// never panic. Seeds cover the malformations the collector polices:
// truncation, trailing bytes, and duplicate fields.
func FuzzReportDecode(f *testing.F) {
	valid := AppendReport(nil, &Report{
		At:         time.Unix(1_600_000_000, 42).UTC(),
		Host:       "shop.example.test",
		Vantage:    "Oregon",
		Client:     77,
		Violation:  ViolationStale,
		Enforce:    true,
		ThisUpdate: time.Unix(1_599_000_000, 0).UTC(),
		NextUpdate: time.Unix(1_599_900_000, 0).UTC(),
	})
	f.Add(valid)
	far := farTimesReport()
	f.Add(AppendReport(nil, &far))
	f.Add(valid[:len(valid)/2])                        // truncated
	f.Add(append(append([]byte(nil), valid...), 0x00)) // trailing byte
	dup := append(append([]byte(nil), valid...), byte(tagHost))
	f.Add(wire.AppendString(dup, "dup.test")) // duplicate field
	f.Add([]byte{})
	f.Add([]byte{reportCodecVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return
		}
		enc := AppendReport(nil, &rep)
		rep2, err := DecodeReport(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v", err)
		}
		if !reflect.DeepEqual(rep, rep2) {
			t.Fatalf("re-decode mismatch:\n got %+v\nwant %+v", rep2, rep)
		}
	})
}

func BenchmarkReportDecode(b *testing.B) {
	enc := AppendReport(nil, &Report{
		At: time.Unix(1_600_000_000, 0).UTC(), Host: "shop.example.test",
		Vantage: "Oregon", Client: 9, Violation: ViolationMissing,
	})
	it := wire.NewInterns()
	if _, err := decodeReportInterned(enc, it); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeReportInterned(enc, it); err != nil {
			b.Fatal(err)
		}
	}
}
