package pkixutil

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	cryptorand "crypto/rand"
	"crypto/rsa"
	"encoding/asn1"
	"math/big"
	"math/rand"
	"testing"
	"time"
)

// The DER writer's contract is byte identity with encoding/asn1.Marshal;
// these tests hold each primitive to it.

func TestAppendIntegerMatchesASN1(t *testing.T) {
	var xs []*big.Int
	for _, v := range []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, -255, -256, -257, 32767, 32768, -32768, -32769, 1 << 40, -(1 << 40)} {
		xs = append(xs, big.NewInt(v))
	}
	// Powers of two and their neighbours, both signs, across the widths a
	// 20-byte serial and a P-256 signature component take.
	for bits := uint(1); bits <= 264; bits++ {
		p := new(big.Int).Lsh(big.NewInt(1), bits)
		for _, d := range []int64{-1, 0, 1} {
			x := new(big.Int).Add(p, big.NewInt(d))
			xs = append(xs, x, new(big.Int).Neg(x))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		x := new(big.Int).SetBytes(buf)
		if rng.Intn(2) == 0 {
			x.Neg(x)
		}
		xs = append(xs, x)
	}
	for _, x := range xs {
		want, err := asn1.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendInteger([]byte{0xee}, x)
		if !bytes.Equal(got[1:], want) || got[0] != 0xee {
			t.Fatalf("AppendInteger(%v) = %x, want %x", x, got[1:], want)
		}
		if n := IntegerLen(x); HeaderLen(n)+n != len(want) {
			t.Fatalf("IntegerLen(%v) = %d, encoding is %d bytes", x, n, len(want))
		}
	}
}

func TestAppendEnumeratedMatchesASN1(t *testing.T) {
	vs := []int64{0, 1, -1, 127, 128, -128, -129, 255, 256, 1<<31 - 1, -1 << 31, 1<<63 - 1, -1 << 63}
	for i := 0; i < 63; i++ {
		vs = append(vs, 1<<i, -(1 << i), 1<<i-1)
	}
	for _, v := range vs {
		want, err := asn1.Marshal(asn1.Enumerated(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendEnumerated(nil, v); !bytes.Equal(got, want) {
			t.Errorf("AppendEnumerated(%d) = %x, want %x", v, got, want)
		}
	}
}

func TestAppendGeneralizedTimeMatchesASN1(t *testing.T) {
	type wire struct {
		T time.Time `asn1:"generalized"`
	}
	east := time.FixedZone("east", 5*3600+30*60)
	for _, tm := range []time.Time{
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2018, 6, 1, 9, 30, 15, 999_999_999, time.UTC),
		time.Date(2018, 6, 1, 23, 30, 15, 0, east),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 23, 59, 59, 0, time.UTC),
	} {
		// The writer always writes UTC; the codecs convert before either
		// encoder sees a time, so the reference gets the UTC instant too.
		want, wantErr := asn1.Marshal(wire{tm.UTC()})
		got, gotErr := AppendGeneralizedTime([]byte{0x30, 0}, tm)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("%v: writer error %v, asn1 error %v", tm, gotErr, wantErr)
		}
		if gotErr != nil {
			if len(got) != 2 {
				t.Errorf("%v: failed append left %d bytes, want the 2 it was given", tm, len(got))
			}
			continue
		}
		if !bytes.Equal(got[2:], want[2:]) {
			t.Errorf("%v: got %x, want %x", tm, got[2:], want[2:])
		}
	}
}

// TestBeginEndMatchesASN1 frames contents across every length form,
// including the sizes where End must shift the contents for a long-form
// length, and nests one element inside another.
func TestBeginEndMatchesASN1(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 129, 255, 256, 257, 65535, 65536, 70000} {
		content := bytes.Repeat([]byte{0x42}, n)
		want, err := asn1.Marshal(asn1.RawValue{Class: asn1.ClassUniversal, Tag: asn1.TagSequence, IsCompound: true, Bytes: content})
		if err != nil {
			t.Fatal(err)
		}
		b, seq := Begin([]byte{0xee}, TagSequence)
		b = append(b, content...)
		if got := End(b, seq); !bytes.Equal(got[1:], want) {
			t.Fatalf("n=%d: Begin/End differ from asn1 (%d vs %d bytes)", n, len(got)-1, len(want))
		}
		if got := AppendElement(nil, TagSequence, content); !bytes.Equal(got, want) {
			t.Fatalf("n=%d: AppendElement differs from asn1", n)
		}

		outerWant, err := asn1.Marshal(asn1.RawValue{Class: asn1.ClassContextSpecific, Tag: 0, IsCompound: true, Bytes: want})
		if err != nil {
			t.Fatal(err)
		}
		b, outer := Begin(nil, TagContextExplicit|0)
		b, inner := Begin(b, TagSequence)
		b = append(b, content...)
		b = End(b, inner)
		if got := End(b, outer); !bytes.Equal(got, outerWant) {
			t.Fatalf("n=%d: nested Begin/End differs from asn1", n)
		}
	}
}

func TestAppendBitStringMatchesASN1(t *testing.T) {
	for _, n := range []int{0, 1, 64, 72, 256, 512} {
		bits := bytes.Repeat([]byte{0x81}, n)
		want, err := asn1.Marshal(asn1.BitString{Bytes: bits, BitLength: 8 * n})
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendBitString(nil, bits); !bytes.Equal(got, want) {
			t.Errorf("n=%d: got %x, want %x", n, got, want)
		}
	}
}

// TestPrecomputedIdentifiers pins the precomputed DER against the structs
// it stands for.
func TestPrecomputedIdentifiers(t *testing.T) {
	for _, h := range []crypto.Hash{crypto.SHA1, crypto.SHA256, crypto.SHA384, crypto.SHA512} {
		oid, err := HashOID(h)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := asn1.Marshal(AlgorithmIdentifier{Algorithm: oid, Parameters: asn1.RawValue{Tag: asn1.TagNull}})
		got, err := HashAlgorithmIdentifierDER(h)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%v: got %x (%v), want %x", h, got, err, want)
		}
	}
	if _, err := HashAlgorithmIdentifierDER(crypto.MD5); err == nil {
		t.Error("MD5 must be unsupported")
	}
	ec, err := ecdsa.GenerateKey(elliptic.P256(), cryptorand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	rk, err := rsa.GenerateKey(cryptorand.Reader, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []crypto.Signer{ec, rk} {
		id, err := SignatureAlgorithmForKey(k)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := asn1.Marshal(id)
		der, sig, err := SignTBSDER(nil, k, []byte("tbs"))
		if err != nil || len(sig) == 0 || !bytes.Equal(der, want) {
			t.Errorf("%T: SignTBSDER identifier %x (%v), want %x", k, der, err, want)
		}
	}
}
