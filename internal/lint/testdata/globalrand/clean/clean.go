// Package clean derives every stream from an explicit seed — the
// splitmix64 child-seed pattern world construction uses.
package clean

import "math/rand"

// childSeed is a stand-in for hashx.Mix.
func childSeed(seed int64, index uint64) int64 {
	x := uint64(seed) + 0x9E3779B97F4A7C15*(index+1)
	x ^= x >> 30
	return int64(x)
}

// Build's randomness is a pure function of (seed, index): methods on a
// locally seeded *rand.Rand are fine.
func Build(seed int64, n int) []int {
	out := make([]int, n)
	for i := range out {
		rng := rand.New(rand.NewSource(childSeed(seed, uint64(i))))
		out[i] = rng.Intn(100)
	}
	return out
}
