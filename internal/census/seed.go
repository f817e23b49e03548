package census

import (
	"math/rand"

	"github.com/netmeasure/muststaple/internal/hashx"
)

// Child-seed derivation, mirroring internal/world's scheme (DESIGN.md §8):
// each generator phase owns a stream tag, and each shard within a phase
// derives its own seed from (Config.Seed, stream, shard index) — which is
// what makes every shard a pure function of (seed, index), generable in
// isolation, in parallel, or on demand, always byte-identically.
const (
	// streamCorpusShard seeds the general-population corpus shards.
	streamCorpusShard uint64 = 1 + iota
	// streamAlexaShard seeds the Alexa domain-model shards.
	streamAlexaShard
	// streamAlexaMustStaple seeds the exact Must-Staple domain selection.
	streamAlexaMustStaple
)

// childRNG returns the dedicated RNG for one (stream, index) cell, seeded
// by folding (seed, stream, index) through hashx.Mix: adjacent shard
// indices yield uncorrelated seeds.
func childRNG(seed int64, stream, index uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(hashx.Mix(uint64(seed), stream, index))))
}
