package pki

import (
	"bytes"
	"crypto"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/asn1"
	"encoding/hex"
	"io"
	"math/big"
	"math/rand"
	"testing"
)

// referenceSign is DeterministicSigner.Sign as first written: a fresh
// SHA-512 per counter over len(d) || d || digest || counter, N−1
// recomputed per call, and encoding/asn1 for (r, s). The signer must stay
// bit-for-bit identical to it.
func referenceSign(k *DeterministicSigner, digest []byte) ([]byte, error) {
	curve := k.Curve
	N := curve.Params().N
	z := hashToInt(digest, N)
	dBytes := k.D.Bytes()
	nMinus1 := new(big.Int).Sub(N, big.NewInt(1))
	for ctr := uint32(0); ; ctr++ {
		h := sha512.New()
		h.Write([]byte{byte(len(dBytes))})
		h.Write(dBytes)
		h.Write(digest)
		h.Write([]byte{byte(ctr >> 24), byte(ctr >> 16), byte(ctr >> 8), byte(ctr)})
		sum := h.Sum(nil)

		kInt := new(big.Int).SetBytes(sum[:40])
		kInt.Mod(kInt, nMinus1)
		kInt.Add(kInt, big.NewInt(1))

		rx, _ := curve.ScalarBaseMult(kInt.Bytes())
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
		return asn1.Marshal(struct{ R, S *big.Int }{r, s})
	}
}

func seededSigner(t *testing.T, seed int64) *DeterministicSigner {
	t.Helper()
	key, err := GenerateKey(rand.New(rand.NewSource(seed)), ECDSAP256)
	if err != nil {
		t.Fatal(err)
	}
	return key.(*DeterministicSigner)
}

// TestDeterministicSignerGoldenVector pins the signature of seed 11's key
// over a fixed digest, recorded before the signer moved onto the DER
// writer. Any drift in the nonce derivation or the encoding fails here.
func TestDeterministicSignerGoldenVector(t *testing.T) {
	const want = "304402206df709b9587a7247e8874d4fe8ce832f92c69a920608c548d5da060a0b283f5602205099219195ba079d3b9798c21431b38b6b45b818740b7afde70058a662d56648"
	digest := sha256.Sum256([]byte("golden digest"))
	sig, err := seededSigner(t, 11).Sign(nil, digest[:], crypto.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(sig); got != want {
		t.Errorf("signature = %s, want %s", got, want)
	}
	if cap(sig) != len(sig) {
		t.Errorf("signature has capacity %d for %d bytes, want exact size", cap(sig), len(sig))
	}
}

// TestDeterministicSignerMatchesReference compares the signer with the
// reference over 200 digests of every length a caller may pass (empty,
// SHA-1, SHA-256, SHA-512, and longer than the order) across three keys.
func TestDeterministicSignerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lengths := []int{0, 1, 20, 32, 48, 64, 65, 100}
	for i := 0; i < 200; i++ {
		k := seededSigner(t, int64(11+i%3))
		digest := make([]byte, lengths[i%len(lengths)])
		io.ReadFull(rng, digest)
		got, err := k.Sign(nil, digest, crypto.SHA256)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceSign(k, digest)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("digest %x: signature %x, reference %x", digest, got, want)
		}
	}
}
