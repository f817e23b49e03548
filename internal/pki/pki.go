// Package pki builds the synthetic certificate-authority hierarchy the
// reproduction measures: root and intermediate CAs, leaf issuance with the
// extensions the paper studies (Authority Information Access with an OCSP
// URL, CRL Distribution Points, and the TLS-Feature "OCSP Must-Staple"
// extension), delegated OCSP responder certificates, and chain
// verification helpers.
//
// All certificates are real DER X.509 produced with crypto/x509; the
// Must-Staple extension bytes are built by hand (RFC 7633) and verified
// round-trip by the package tests.
package pki

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	cryptorand "crypto/rand"
	"crypto/rsa"
	"crypto/sha512"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"net/url"
	"sync"
	"time"

	"github.com/netmeasure/muststaple/internal/pkixutil"
)

// KeyAlgorithm selects the key family for generated certificates.
type KeyAlgorithm int

const (
	// ECDSAP256 is the default: fast to generate and sign with, which
	// matters when the world contains thousands of certificates.
	ECDSAP256 KeyAlgorithm = iota
	// RSA2048 matches the dominant key type of the 2018 web PKI.
	RSA2048
)

func (a KeyAlgorithm) String() string {
	switch a {
	case ECDSAP256:
		return "ECDSA-P256"
	case RSA2048:
		return "RSA-2048"
	}
	return fmt.Sprintf("keyalg(%d)", int(a))
}

// GenerateKey creates a private key of the given family using rand (nil
// means crypto/rand.Reader). Passing a deterministic reader yields
// reproducible ECDSA keys: the scalar is derived from a fixed-width read,
// sidestepping the deliberate nondeterminism (randutil.MaybeReadByte and
// rejection sampling) inside crypto/ecdsa.GenerateKey. Seeded ECDSA keys
// also sign deterministically (RFC 6979-style derived nonces), so every
// certificate and OCSP response they produce is byte-reproducible — the
// property world.Build's parallel construction relies on. RSA generation
// is inherently non-reproducible and documented as such.
func GenerateKey(rand io.Reader, alg KeyAlgorithm) (crypto.Signer, error) {
	switch alg {
	case ECDSAP256:
		if rand == nil {
			return ecdsa.GenerateKey(elliptic.P256(), cryptorand.Reader)
		}
		return deterministicP256Key(rand)
	case RSA2048:
		if rand == nil {
			rand = cryptorand.Reader
		}
		return rsa.GenerateKey(rand, 2048)
	default:
		return nil, fmt.Errorf("pki: unknown key algorithm %v", alg)
	}
}

// deterministicP256Key derives a P-256 key from exactly 40 bytes of rand:
// d = OS2IP(bytes) mod (N−1) + 1. The 64 bits of surplus width make the
// modular bias negligible; the same reader state always yields the same
// key, which is what makes seeded worlds reproducible.
func deterministicP256Key(rand io.Reader) (*DeterministicSigner, error) {
	var buf [40]byte
	if _, err := io.ReadFull(rand, buf[:]); err != nil {
		return nil, fmt.Errorf("pki: read key material: %w", err)
	}
	curve := elliptic.P256()
	d := new(big.Int).SetBytes(buf[:])
	d.Mod(d, p256NMinus1)
	d.Add(d, big.NewInt(1))
	priv := &ecdsa.PrivateKey{D: d}
	priv.Curve = curve
	priv.X, priv.Y = curve.ScalarBaseMult(d.Bytes())
	return &DeterministicSigner{PrivateKey: priv}, nil
}

// DeterministicSigner is an ECDSA P-256 signer whose signatures are a pure
// function of (private key, digest): the nonce is derived RFC 6979-style
// instead of being drawn from the signing entropy source, and the rand
// argument of Sign is ignored. Two builds of a seeded world therefore emit
// byte-identical certificate and response DER, which is what lets the
// parallel world builder be checked bytewise against a serial reference
// build. Signatures verify with standard crypto/ecdsa verification.
type DeterministicSigner struct {
	*ecdsa.PrivateKey
}

// p256NMinus1 is N−1 of P-256: key and nonce scalars are reduced modulo
// it and shifted into [1, N−1].
var p256NMinus1 = new(big.Int).Sub(elliptic.P256().Params().N, big.NewInt(1))

// Sign implements crypto.Signer with a derived nonce. digest must already
// be hashed; opts' hash function is not consulted (matching how ECDSA
// signing treats a pre-hashed input).
func (k *DeterministicSigner) Sign(_ io.Reader, digest []byte, _ crypto.SignerOpts) ([]byte, error) {
	curve := k.Curve
	N := curve.Params().N
	nMinus1 := p256NMinus1
	if curve != elliptic.P256() {
		nMinus1 = new(big.Int).Sub(N, big.NewInt(1))
	}
	z := hashToInt(digest, N)
	// Nonce stream: SHA-512(len(d) || d || digest || counter), widened to
	// 40 bytes and reduced like the key scalar. Same (key, digest) always
	// yields the same k; distinct digests decouple immediately in the
	// hash, so nonces never repeat across messages. The input is built
	// once, on the stack for the usual sizes, and only the counter changes.
	dLen := (k.D.BitLen() + 7) / 8
	var stack [1 + 66 + 64 + 4]byte
	msg := append(stack[:0], byte(dLen))
	msg = append(msg, make([]byte, dLen)...)
	k.D.FillBytes(msg[1:])
	msg = append(msg, digest...)
	msg = append(msg, 0, 0, 0, 0)
	ctrAt := len(msg) - 4
	// ScalarBaseMult takes the nonce at the order's full width, the form
	// it would otherwise pad a minimal encoding to.
	var scalar [66]byte
	kBytes := scalar[:(N.BitLen()+7)/8]
	for ctr := uint32(0); ; ctr++ {
		binary.BigEndian.PutUint32(msg[ctrAt:], ctr)
		sum := sha512.Sum512(msg)

		kInt := new(big.Int).SetBytes(sum[:40])
		kInt.Mod(kInt, nMinus1)
		kInt.Add(kInt, big.NewInt(1))

		rx, _ := curve.ScalarBaseMult(kInt.FillBytes(kBytes))
		r := new(big.Int).Mod(rx, N)
		if r.Sign() == 0 {
			continue
		}
		kInv := new(big.Int).ModInverse(kInt, N)
		if kInv == nil {
			continue
		}
		s := new(big.Int).Mul(r, k.D)
		s.Add(s, z)
		s.Mul(s, kInv)
		s.Mod(s, N)
		if s.Sign() == 0 {
			continue
		}
		return marshalSignature(r, s), nil
	}
}

// marshalSignature encodes the SEQUENCE { r INTEGER, s INTEGER } signature
// form in one exact-size allocation.
func marshalSignature(r, s *big.Int) []byte {
	rLen, sLen := pkixutil.IntegerLen(r), pkixutil.IntegerLen(s)
	n := pkixutil.HeaderLen(rLen) + rLen + pkixutil.HeaderLen(sLen) + sLen
	out := make([]byte, 0, pkixutil.HeaderLen(n)+n)
	out = pkixutil.AppendHeader(out, pkixutil.TagSequence, n)
	out = pkixutil.AppendInteger(out, r)
	return pkixutil.AppendInteger(out, s)
}

// hashToInt converts a digest to an integer the way ECDSA does: truncate to
// the bit length of the group order.
func hashToInt(digest []byte, n *big.Int) *big.Int {
	orderBits := n.BitLen()
	orderBytes := (orderBits + 7) / 8
	if len(digest) > orderBytes {
		digest = digest[:orderBytes]
	}
	out := new(big.Int).SetBytes(digest)
	if excess := len(digest)*8 - orderBits; excess > 0 {
		out.Rsh(out, uint(excess))
	}
	return out
}

// CA is a certificate authority able to issue leaves, intermediates,
// delegated OCSP responder certificates, and CRLs.
type CA struct {
	Name        string
	Certificate *x509.Certificate
	Key         crypto.Signer

	// OCSPURL and CRLURL are stamped into issued certificates' AIA and
	// CRLDP extensions.
	OCSPURL string
	CRLURL  string

	rand io.Reader

	mu         sync.Mutex
	nextSerial int64
}

// Config configures NewRootCA.
type Config struct {
	// Name is the CA's common name, e.g. "Synthetic Root R1".
	Name string
	// KeyAlgorithm defaults to ECDSAP256.
	KeyAlgorithm KeyAlgorithm
	// Rand is the randomness source (nil = crypto/rand.Reader). A
	// seeded reader makes the whole hierarchy reproducible.
	Rand io.Reader
	// NotBefore/NotAfter default to a 10-year window around Now.
	NotBefore, NotAfter time.Time
	// OCSPURL / CRLURL to stamp into certificates this CA issues.
	OCSPURL, CRLURL string
	// SerialBase offsets issued serial numbers so that distinct CAs in
	// a generated world do not collide (serials are only unique per
	// issuer, but distinct bases make test failures easier to read).
	SerialBase int64
}

func (c *Config) fill() {
	if c.NotBefore.IsZero() {
		c.NotBefore = time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.NotAfter.IsZero() {
		c.NotAfter = c.NotBefore.AddDate(10, 0, 0)
	}
	if c.Rand == nil {
		c.Rand = cryptorand.Reader
	}
}

// NewRootCA creates a self-signed root.
func NewRootCA(cfg Config) (*CA, error) {
	cfg.fill()
	key, err := GenerateKey(cfg.Rand, cfg.KeyAlgorithm)
	if err != nil {
		return nil, fmt.Errorf("pki: generate root key: %w", err)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: cfg.Name, Organization: []string{cfg.Name}},
		NotBefore:             cfg.NotBefore,
		NotAfter:              cfg.NotAfter,
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
	}
	// Signing randomness comes from crypto/rand even in seeded worlds:
	// ECDSA signing would otherwise consume a nondeterministic number of
	// reader bytes, shifting the seeded stream and breaking key
	// reproducibility. Seeded keys are DeterministicSigners that ignore
	// the entropy argument entirely, so seeded certificate DER is still
	// byte-identical across builds.
	der, err := x509.CreateCertificate(cryptorand.Reader, tmpl, tmpl, key.Public(), key)
	if err != nil {
		return nil, fmt.Errorf("pki: create root certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{
		Name:        cfg.Name,
		Certificate: cert,
		Key:         key,
		OCSPURL:     cfg.OCSPURL,
		CRLURL:      cfg.CRLURL,
		rand:        cfg.Rand,
		nextSerial:  cfg.SerialBase + 1000,
	}, nil
}

func (ca *CA) takeSerial() *big.Int {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.nextSerial++
	return big.NewInt(ca.nextSerial)
}

// LeafOptions controls leaf issuance.
type LeafOptions struct {
	// DNSNames are the subjectAltNames (the first is also the CN).
	DNSNames []string
	// NotBefore/NotAfter default to a 90-day window from the CA's
	// NotBefore (Let's-Encrypt-style).
	NotBefore, NotAfter time.Time
	// MustStaple adds the TLS-Feature status_request extension
	// (OID 1.3.6.1.5.5.7.1.24) — the OCSP Must-Staple extension.
	MustStaple bool
	// OmitOCSP drops the AIA OCSP URL: the 4.6% of valid 2018
	// certificates with no OCSP responder at all.
	OmitOCSP bool
	// OmitCRL drops the CRL Distribution Points extension — Let's
	// Encrypt famously supported only OCSP (paper §5.4, footnote 18).
	OmitCRL bool
	// OCSPURL / CRLURL override the CA defaults when non-empty.
	OCSPURL, CRLURL string
	// KeyAlgorithm defaults to ECDSAP256.
	KeyAlgorithm KeyAlgorithm
	// Serial overrides the CA's serial allocator when non-nil (the
	// consistency study needs specific serials on both CRL and OCSP
	// sides).
	Serial *big.Int
}

// Leaf is an issued end-entity certificate with its private key.
type Leaf struct {
	Certificate *x509.Certificate
	Key         crypto.Signer
	Issuer      *CA
}

// IssueLeaf issues an end-entity certificate.
func (ca *CA) IssueLeaf(opts LeafOptions) (*Leaf, error) {
	if len(opts.DNSNames) == 0 {
		return nil, fmt.Errorf("pki: leaf needs at least one DNS name")
	}
	if opts.NotBefore.IsZero() {
		opts.NotBefore = ca.Certificate.NotBefore
	}
	if opts.NotAfter.IsZero() {
		opts.NotAfter = opts.NotBefore.AddDate(0, 0, 90)
	}
	key, err := GenerateKey(ca.rand, opts.KeyAlgorithm)
	if err != nil {
		return nil, fmt.Errorf("pki: generate leaf key: %w", err)
	}
	serial := opts.Serial
	if serial == nil {
		serial = ca.takeSerial()
	}

	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: opts.DNSNames[0]},
		DNSNames:     opts.DNSNames,
		NotBefore:    opts.NotBefore,
		NotAfter:     opts.NotAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
	}

	ocspURL := opts.OCSPURL
	if ocspURL == "" {
		ocspURL = ca.OCSPURL
	}
	if !opts.OmitOCSP && ocspURL != "" {
		tmpl.OCSPServer = []string{ocspURL}
	}
	crlURL := opts.CRLURL
	if crlURL == "" {
		crlURL = ca.CRLURL
	}
	if !opts.OmitCRL && crlURL != "" {
		tmpl.CRLDistributionPoints = []string{crlURL}
	}
	if opts.MustStaple {
		tmpl.ExtraExtensions = append(tmpl.ExtraExtensions, MustStapleExtension())
	}

	der, err := x509.CreateCertificate(cryptorand.Reader, tmpl, ca.Certificate, key.Public(), ca.Key)
	if err != nil {
		return nil, fmt.Errorf("pki: create leaf certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Certificate: cert, Key: key, Issuer: ca}, nil
}

// IssueOCSPResponderCert issues a delegated OCSP responder certificate: an
// end-entity certificate signed by the CA with the id-kp-OCSPSigning EKU,
// enabling OCSP signature authority delegation (paper §2.2).
func (ca *CA) IssueOCSPResponderCert(name string, notBefore, notAfter time.Time) (*Leaf, error) {
	key, err := GenerateKey(ca.rand, ECDSAP256)
	if err != nil {
		return nil, err
	}
	if notBefore.IsZero() {
		notBefore = ca.Certificate.NotBefore
	}
	if notAfter.IsZero() {
		notAfter = ca.Certificate.NotAfter
	}
	tmpl := &x509.Certificate{
		SerialNumber: ca.takeSerial(),
		Subject:      pkix.Name{CommonName: name},
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageOCSPSigning},
	}
	der, err := x509.CreateCertificate(cryptorand.Reader, tmpl, ca.Certificate, key.Public(), ca.Key)
	if err != nil {
		return nil, fmt.Errorf("pki: create responder certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Certificate: cert, Key: key, Issuer: ca}, nil
}

// tlsFeature is the RFC 7633 TLS feature extension body: a SEQUENCE OF
// INTEGER naming TLS extension numbers the certificate demands. 5 is
// status_request — OCSP stapling.
const tlsFeatureStatusRequest = 5

// MustStapleExtension builds the X.509v3 TLS Feature extension asserting
// status_request — i.e., OCSP Must-Staple.
func MustStapleExtension() pkix.Extension {
	features := pkixutil.AppendInteger(nil, big.NewInt(tlsFeatureStatusRequest))
	return pkix.Extension{Id: pkixutil.OIDExtensionTLSFeature, Value: pkixutil.AppendElement(nil, pkixutil.TagSequence, features)}
}

// HasMustStaple reports whether cert carries the TLS-Feature extension with
// status_request — the check the paper runs over the Censys corpus (§4).
// As with encoding/asn1, a feature list must be a SEQUENCE OF INTEGERs
// that each fit an int, and what follows it is ignored; the first
// malformed list ends the search.
func HasMustStaple(cert *x509.Certificate) bool {
	for _, ext := range cert.Extensions {
		if !ext.Id.Equal(pkixutil.OIDExtensionTLSFeature) {
			continue
		}
		in := pkixutil.Input(ext.Value)
		var list pkixutil.Element
		if !in.ReadElement(&list, pkixutil.TagSequence) {
			return false
		}
		found := false
		for items := list.Content; len(items) > 0; {
			var f pkixutil.Element
			if !items.ReadElement(&f, pkixutil.TagInteger) {
				return false
			}
			v, ok := f.Content.Int()
			if !ok {
				return false
			}
			found = found || v == tlsFeatureStatusRequest
		}
		if found {
			return true
		}
	}
	return false
}

// OCSPURL returns the first OCSP responder URL in the certificate's AIA
// extension, or "" if the certificate does not support OCSP.
func OCSPURL(cert *x509.Certificate) string {
	if len(cert.OCSPServer) == 0 {
		return ""
	}
	return cert.OCSPServer[0]
}

// SupportsOCSP reports whether the certificate advertises at least one
// well-formed OCSP responder URL.
func SupportsOCSP(cert *x509.Certificate) bool {
	for _, raw := range cert.OCSPServer {
		if u, err := url.Parse(raw); err == nil && u.Scheme != "" && u.Host != "" {
			return true
		}
	}
	return false
}
