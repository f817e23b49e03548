package hashx

import (
	"math/rand"
	"testing"
)

// The oracle formulas below are the reference definitions every seeded
// world, latency draw and cache key was generated with, written out one
// per use; hashx must return exactly their values.

func oracleFNV64(b []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime
	}
	return h
}

func oracleFNV64Str(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func oracleFNV32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func oracleChildSeed(seed int64, stream, index uint64) int64 {
	x := uint64(seed)
	for _, w := range [2]uint64{stream, index} {
		x += 0x9E3779B97F4A7C15 * (w + 1)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return int64(x)
}

func oracleMix(seed uint64, words ...uint64) uint64 {
	x := seed
	for _, w := range words {
		x += 0x9E3779B97F4A7C15 * (w + 1)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

func oracleSplitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// TestMatchesOracles checks every function against its reference formula
// over 2,000 seeded inputs: byte strings of 0 to 96 bytes (most
// past 32, where the compiler's small-buffer paths end), and seeds and
// words drawn from the full 64-bit range plus the small stream tags and
// indices the generators pass.
func TestMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	word := func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(rng.Intn(8))
		}
		return rng.Uint64()
	}
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(97))
		rng.Read(b)
		s := string(b)
		if got, want := Sum64(b), oracleFNV64(b); got != want {
			t.Fatalf("Sum64(%x) = %#x, want %#x", b, got, want)
		}
		if got, want := Sum64(s), oracleFNV64Str(s); got != want {
			t.Fatalf("Sum64(%q) = %#x, want %#x", s, got, want)
		}
		cut := rng.Intn(len(b) + 1)
		if got, want := Add64(Sum64(s[:cut]), b[cut:]), oracleFNV64(b); got != want {
			t.Fatalf("Add64 split at %d of %x = %#x, want %#x", cut, b, got, want)
		}
		if got, want := Sum32(s), oracleFNV32(s); got != want {
			t.Fatalf("Sum32(%q) = %#x, want %#x", s, got, want)
		}

		seed, stream, index := word(), word(), word()
		if got, want := int64(Mix(seed, stream, index)), oracleChildSeed(int64(seed), stream, index); got != want {
			t.Fatalf("Mix as childSeed(%#x, %d, %d) = %#x, want %#x", seed, stream, index, got, want)
		}
		words := []uint64{stream, index, word(), word()}[:1+i%4]
		if got, want := Mix(seed, words...), oracleMix(seed, words...); got != want {
			t.Fatalf("Mix(%#x, %v) = %#x, want %#x", seed, words, got, want)
		}
		if got, want := Mix(seed, 0), oracleSplitmix64(seed); got != want {
			t.Fatalf("Mix(%#x, 0) = %#x, want splitmix64 %#x", seed, got, want)
		}
	}
}
