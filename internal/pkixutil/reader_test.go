package pkixutil

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rsa"
	"crypto/x509"
	"encoding/asn1"
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// The DER reader's contract is encoding/asn1.Unmarshal's verdict and
// values; these tests hold each primitive to it on crafted and random
// input. The OCSP parsers built on it are fuzzed against the
// encoding/asn1 parsers in internal/ocsp.

// readerInputs returns crafted headers (every length form, multi-byte
// tags, truncations) and random short byte strings, each with a few
// trailing bytes so that what a read leaves behind is compared too.
func readerInputs() [][]byte {
	ins := [][]byte{
		nil, {}, {0x30}, {0x30, 0x00}, {0x04, 0x01}, {0x04, 0x01, 0xaa},
		{0x04, 0x80, 0x00, 0x00}, {0x04, 0x81, 0x7f}, {0x04, 0x81, 0x80}, {0x04, 0x82, 0x00, 0x80},
		{0x04, 0x84, 0x7f, 0xff, 0xff, 0xff}, {0x04, 0x84, 0x80, 0x00, 0x00, 0x00}, {0x04, 0x85, 1, 0, 0, 0, 0},
		{0x1f, 0x1f, 0x00}, {0x1f, 0x1e, 0x00}, {0x9f, 0x80, 0x1f, 0x00}, {0xbf, 0x81, 0x00, 0x00},
		{0xdf, 0x87, 0xff, 0xff, 0xff, 0x7f, 0x00}, {0xdf, 0x88, 0x80, 0x80, 0x80, 0x00, 0x00}, {0x5f, 0xff},
		{0x02, 0x01, 0x05, 0x04, 0x01, 0xaa}, {0x02, 0x01, 0x05, 0x04, 0x00}, {0x04, 0x00},
	}
	long := append([]byte{0x04, 0x81, 0x80}, bytes.Repeat([]byte{0x5a}, 0x80)...)
	ins = append(ins, long)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20000; i++ {
		b := make([]byte, 1+rng.Intn(8))
		rng.Read(b)
		if rng.Intn(3) == 0 {
			b[0] = []byte{0x02, 0x03, 0x04, 0x06, 0x0a, 0x17, 0x18, 0x30, 0xa0}[rng.Intn(9)]
		}
		if len(b) > 1 && rng.Intn(2) == 0 {
			b[1] = byte(rng.Intn(len(b)))
		}
		ins = append(ins, b)
	}
	var out [][]byte
	for _, in := range ins {
		out = append(out, in, append(bytes.Clone(in), 0x05, 0x00))
	}
	return out
}

// TestReadElementMatchesRawValue reads every input as one required ANY
// field, against Unmarshal into an asn1.RawValue.
func TestReadElementMatchesRawValue(t *testing.T) {
	for _, in := range readerInputs() {
		var raw asn1.RawValue
		rest, err := asn1.Unmarshal(in, &raw)
		s := Input(in)
		var e Element
		ok := s.ReadElement(&e, AnyTag)
		if ok != (err == nil) {
			t.Fatalf("%x: reader ok=%v, encoding/asn1 %v", in, ok, err)
		}
		if ok && (e.Class != raw.Class || e.Tag != raw.Tag || e.Full[0]&0x20 != 0 != raw.IsCompound ||
			!bytes.Equal(e.Content, raw.Bytes) || !bytes.Equal(e.Full, raw.FullBytes) || !bytes.Equal(s, rest)) {
			t.Fatalf("%x: reader %+v rest %x, encoding/asn1 %+v rest %x", in, e, s, raw, rest)
		}
	}
}

// TestTypedReadsMatchASN1 decodes every input as each universal type
// the OCSP parsers read, against Unmarshal into the Go type that
// encoding/asn1 maps it to.
func TestTypedReadsMatchASN1(t *testing.T) {
	type decoded struct {
		ok   bool
		val  any
		rest []byte
	}
	read := func(in []byte, want byte, decode func(e *Element) (any, bool)) decoded {
		s := Input(in)
		var e Element
		if !s.ReadElement(&e, want) {
			return decoded{}
		}
		v, ok := decode(&e)
		if !ok {
			return decoded{}
		}
		return decoded{true, v, s}
	}
	ref := func(in []byte, v any) decoded {
		rest, err := asn1.Unmarshal(in, v)
		if err != nil {
			return decoded{}
		}
		return decoded{true, reflect.ValueOf(v).Elem().Interface(), rest}
	}
	cases := []struct {
		name   string
		reader func([]byte) decoded
		oracle func([]byte) decoded
	}{
		{"big.Int", func(in []byte) decoded {
			return read(in, TagInteger, func(e *Element) (any, bool) { x := new(big.Int); return x, e.Content.Integer(x) })
		}, func(in []byte) decoded { var x *big.Int; return ref(in, &x) }},
		{"int", func(in []byte) decoded {
			return read(in, TagInteger, func(e *Element) (any, bool) { return e.Content.Int() })
		}, func(in []byte) decoded { var x int; return ref(in, &x) }},
		{"Enumerated", func(in []byte) decoded {
			return read(in, TagEnumerated, func(e *Element) (any, bool) { v, ok := e.Content.Enum(); return asn1.Enumerated(v), ok })
		}, func(in []byte) decoded { var x asn1.Enumerated; return ref(in, &x) }},
		{"ObjectIdentifier", func(in []byte) decoded {
			return read(in, TagOID, func(e *Element) (any, bool) {
				oid, ok := e.Content.ObjectIdentifier()
				if ok != e.Content.ValidOID() {
					panic(fmt.Sprintf("ValidOID(%x) = %v, ObjectIdentifier ok = %v", e.Content, !ok, ok))
				}
				return oid, ok
			})
		}, func(in []byte) decoded { var x asn1.ObjectIdentifier; return ref(in, &x) }},
		{"BitString", func(in []byte) decoded {
			return read(in, TagBitString, func(e *Element) (any, bool) { return e.Content.BitString() })
		}, func(in []byte) decoded { var x asn1.BitString; return ref(in, &x) }},
		{"bool", func(in []byte) decoded {
			return read(in, TagBoolean, func(e *Element) (any, bool) { return e.Content.Boolean() })
		}, func(in []byte) decoded { var x bool; return ref(in, &x) }},
		{"OCTET STRING", func(in []byte) decoded {
			return read(in, TagOctetString, func(e *Element) (any, bool) { return []byte(e.Content), true })
		}, func(in []byte) decoded { var x []byte; return ref(in, &x) }},
	}
	for _, c := range cases {
		for _, in := range readerInputs() {
			got, want := c.reader(in), c.oracle(in)
			if got.ok != want.ok || got.ok && (!reflect.DeepEqual(got.val, want.val) || !bytes.Equal(got.rest, want.rest)) {
				t.Fatalf("%s %x: reader %+v, encoding/asn1 %+v", c.name, in, got, want)
			}
		}
	}
}

// TestTimeMatchesASN1 decodes UTCTime and GeneralizedTime contents,
// valid and not, against Unmarshal into a time.Time.
func TestTimeMatchesASN1(t *testing.T) {
	contents := []string{
		"20180601093015Z", "00000101000000Z", "99991231235959Z", "20200229120000Z", "20190229120000Z",
		"20180431000000Z", "20180600000000Z", "20181301000000Z", "20180101240000Z", "20180101236000Z",
		"20180101235960Z", "2018060109301Z5", "2018060109301AZ", "20180601093015", "20180601093015z",
		"20180601093015.5Z", "20180601093015.123456789Z", "20180601093015.1234567891Z", "20180601093015.50Z",
		"20180601093015.Z", "20180601093015,5Z", "20180601093015+0130", "20180601093015-0800", "20180601093015+0000",
		"20180601093015-0000", "20180601093015+2400", "20180601093015+0060", "20180601093015+01", "201806010930Z",
		"180601093015Z", "1806010930Z", "500101000000Z", "491231235959Z", "180601093015+0200", "1806010930-0130",
		"180601093015", "18060109301Z", "", "Z", "+20180601093015Z",
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 3000; i++ {
		b := []byte(contents[rng.Intn(len(contents))])
		if len(b) > 0 {
			b[rng.Intn(len(b))] = "0123456789Z+-.9"[rng.Intn(15)]
		}
		contents = append(contents, string(b))
	}
	for _, c := range contents {
		for _, tag := range []byte{TagGeneralizedTime, TagUTCTime} {
			in := AppendElement(nil, tag, []byte(c))
			var want time.Time
			_, err := asn1.Unmarshal(in, &want)
			s := Input(in)
			var e Element
			if !s.ReadElement(&e, AnyTime) {
				t.Fatalf("%x: not read as a time", in)
			}
			got, ok := e.Time()
			_, gotOff := got.Zone()
			_, wantOff := want.Zone()
			if ok != (err == nil) || ok && (!got.Equal(want) || gotOff != wantOff) {
				t.Fatalf("tag %d %q: reader %v ok=%v, encoding/asn1 %v %v", tag, c, got, ok, want, err)
			}
		}
	}
}

// TestExplicitFieldMatchesASN1 reads an optional explicit [0] INTEGER
// field followed by a required OCTET STRING, the shape of every explicit
// field the OCSP parsers read, against a struct with that tag.
func TestExplicitFieldMatchesASN1(t *testing.T) {
	type wire struct {
		V   int `asn1:"explicit,tag:0,optional,default:-7"`
		Oct []byte
	}
	var bodies [][]byte
	for _, in := range readerInputs() {
		// The wrapper claims all of in, three octets, more than there
		// is, or nothing.
		bodies = append(bodies, in, append([]byte{0xa0, byte(len(in))}, in...), append([]byte{0xa0, 0x03}, in...),
			append([]byte{0xa0, 0x7f}, in...), append([]byte{0x80, 0x00}, in...))
	}
	for _, body := range bodies {
		in := AppendElement(nil, TagSequence, body)
		var w wire
		_, err := asn1.Unmarshal(in, &w)

		got := wire{V: -7}
		ok := func() bool {
			s := Input(in)
			var seq, v, oct Element
			var present bool
			if !s.ReadElement(&seq, TagSequence) || !seq.Content.ReadOptionalExplicit(&v, &present, 0, TagInteger) {
				return false
			}
			if present {
				var ok bool
				if got.V, ok = v.Content.Int(); !ok {
					return false
				}
			}
			if !seq.Content.ReadElement(&oct, TagOctetString) {
				return false
			}
			got.Oct = bytes.Clone(oct.Content)
			return true
		}()
		if ok != (err == nil) || ok && !reflect.DeepEqual(got, w) {
			t.Fatalf("%x: reader %+v ok=%v, encoding/asn1 %+v %v", in, got, ok, w, err)
		}
	}
}

// algorithmIdentifierASN1 is the encoding/asn1 wire form of an
// AlgorithmIdentifier.
type algorithmIdentifierASN1 struct {
	Algorithm  asn1.ObjectIdentifier
	Parameters asn1.RawValue `asn1:"optional"`
}

// subjectPublicKeyInfo is the encoding/asn1 wire form IssuerKeyHash read
// before the DER reader.
type subjectPublicKeyInfo struct {
	Algorithm algorithmIdentifierASN1
	PublicKey asn1.BitString
}

func referenceIssuerKeyHash(issuer *x509.Certificate, h crypto.Hash) ([]byte, error) {
	var spki subjectPublicKeyInfo
	if _, err := asn1.Unmarshal(issuer.RawSubjectPublicKeyInfo, &spki); err != nil {
		return nil, err
	}
	return hashBytes(spki.PublicKey.RightAlign(), h)
}

// TestIssuerKeyHashMatchesASN1 compares IssuerKeyHash with the
// encoding/asn1 version on ECDSA and RSA keys, on every truncation and
// single-byte change of their SubjectPublicKeyInfo, and with trailing
// bytes.
func TestIssuerKeyHashMatchesASN1(t *testing.T) {
	ec, err := ecdsa.GenerateKey(elliptic.P256(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rk, err := rsa.GenerateKey(rand.New(rand.NewSource(2)), 1024)
	if err != nil {
		t.Fatal(err)
	}
	var spkis [][]byte
	for _, pub := range []any{ec.Public(), rk.Public()} {
		der, err := x509.MarshalPKIXPublicKey(pub)
		if err != nil {
			t.Fatal(err)
		}
		spkis = append(spkis, der, append(bytes.Clone(der), 0x05, 0x00))
		for i := range der {
			spkis = append(spkis, der[:i])
			for _, x := range []byte{0x01, 0x80, 0xff} {
				m := bytes.Clone(der)
				m[i] ^= x
				spkis = append(spkis, m)
			}
		}
	}
	for _, spki := range spkis {
		cert := &x509.Certificate{RawSubjectPublicKeyInfo: spki}
		for _, h := range []crypto.Hash{crypto.SHA1, crypto.SHA256} {
			got, gotErr := IssuerKeyHash(cert, h)
			want, wantErr := referenceIssuerKeyHash(cert, h)
			if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(got, want) {
				t.Fatalf("%x: IssuerKeyHash %x %v, encoding/asn1 %x %v", spki, got, gotErr, want, wantErr)
			}
		}
	}
}

// TestHashFromOIDContents pins the contents lookup to the hash OIDs.
func TestHashFromOIDContents(t *testing.T) {
	for _, c := range []struct {
		oid  asn1.ObjectIdentifier
		want crypto.Hash
	}{
		{OIDSHA1, crypto.SHA1}, {OIDSHA256, crypto.SHA256}, {OIDSHA384, crypto.SHA384}, {OIDSHA512, crypto.SHA512},
		{OIDOCSPNonce, 0}, {asn1.ObjectIdentifier{1, 3, 14, 3, 2, 27}, 0},
	} {
		der, err := asn1.Marshal(c.oid)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := HashFromOIDContents(der[2:])
		if ok != (c.want != 0) || got != c.want {
			t.Errorf("%v: got %v %v, want %v", c.oid, got, ok, c.want)
		}
	}
}

// TestReadExtensionMatchesASN1 reads every input as one Extension,
// against Unmarshal into the Extension wire struct.
func TestReadExtensionMatchesASN1(t *testing.T) {
	type extension struct {
		ID       asn1.ObjectIdentifier
		Critical bool `asn1:"optional"`
		Value    []byte
	}
	oid := AppendElement(nil, TagOID, []byte{0x55, 0x1d, 0x15})
	var ins [][]byte
	for _, in := range readerInputs() {
		// Each input as a whole Extension, and as what follows its
		// extnID, with and without a critical flag.
		ins = append(ins, in,
			AppendElement(nil, TagSequence, append(bytes.Clone(oid), in...)),
			AppendElement(nil, TagSequence, append(append(bytes.Clone(oid), TagBoolean, 1, 0xff), in...)),
			AppendElement(nil, TagSequence, append(append(bytes.Clone(oid), TagBoolean, 1, 0x01), in...)))
	}
	for _, in := range ins {
		var w extension
		rest, err := asn1.Unmarshal(in, &w)
		s := Input(in)
		var id, value Input
		ok := s.ReadExtension(&id, &value)
		if ok != (err == nil) {
			t.Fatalf("%x: reader ok=%v, encoding/asn1 %v", in, ok, err)
		}
		if !ok {
			continue
		}
		got, _ := id.ObjectIdentifier()
		if !got.Equal(w.ID) || !bytes.Equal(value, w.Value) || !bytes.Equal(s, rest) {
			t.Fatalf("%x: reader %v %x rest %x, encoding/asn1 %+v rest %x", in, got, value, s, w, rest)
		}
	}
}
