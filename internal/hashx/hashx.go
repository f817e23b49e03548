// Package hashx holds the repository's two deterministic non-cryptographic
// hashes: FNV-1a, which keys every memo table, picks collector shards and
// draws netsim's latency jitter, and the splitmix64 fold that derives the
// seeded generators' child streams (DESIGN.md §8). Every seeded figure
// depends on these exact values, so an oracle test pins them to reference
// formulas.
package hashx

// FNV-1a parameters.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
	offset32 = 2166136261
	prime32  = 16777619
)

// Sum64 returns the 64-bit FNV-1a hash of b.
//
//lint:allocfree
func Sum64[T ~string | ~[]byte](b T) uint64 {
	return Add64(offset64, b)
}

// Add64 continues the 64-bit FNV-1a hash h over b, so a key can be hashed
// piece by piece without being built: Add64(Sum64(a), b) == Sum64(a + b).
//
//lint:allocfree
func Add64[T ~string | ~[]byte](h uint64, b T) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * prime64
	}
	return h
}

// Sum32 returns the 32-bit FNV-1a hash of s.
func Sum32(s string) uint32 {
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * prime32
	}
	return h
}

// Mix folds words into seed through the splitmix64 finalizer, one round
// per word. Each round is a full-avalanche permutation, so adjacent
// indices yield uncorrelated values; Mix(x, 0) is splitmix64(x).
func Mix(seed uint64, words ...uint64) uint64 {
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
