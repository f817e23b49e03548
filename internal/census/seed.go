package census

// Child-seed derivation, internal/world's scheme (DESIGN.md §8): each
// generator phase owns a stream tag, and each shard within a phase draws
// from hashx.ChildRNG(Config.Seed, stream, shard index) — which is
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
