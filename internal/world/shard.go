package world

import (
	"fmt"

	"github.com/netmeasure/muststaple/internal/clock"
	"github.com/netmeasure/muststaple/internal/pki"
	"github.com/netmeasure/muststaple/internal/responder"
)

// Fleet sharding (DESIGN.md §13). The responder fleet is partitioned into
// fixed-width shards; shard k covers indices [k*ShardSize, (k+1)*ShardSize)
// and is a pure function of (Config.Seed, k): every responder's key
// material comes from its own (streamResponderCA, index) child RNG, and the
// behavior-spec assignment — one cheap shuffled stream covering the whole
// fleet — depends only on (Seed, Responders), so an isolated shard build
// recomputes it identically. Build generates shards concurrently and
// assembles them in index order; BuildShard generates one in isolation,
// byte-identically.

// ShardSize is the responders per fleet shard: small enough that the
// default 536-responder fleet spreads across a worker pool, large enough
// that the per-shard spec recomputation stays negligible next to key
// generation.
const ShardSize = 16

// NumShards returns the fleet shard count for cfg.
func NumShards(cfg Config) int {
	cfg = cfg.withDefaults()
	return (cfg.Responders + ShardSize - 1) / ShardSize
}

// shardBounds returns the index range [lo, hi) of shard k in a fleet of n.
func shardBounds(k, n int) (lo, hi int) {
	lo = k * ShardSize
	hi = lo + ShardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// BuildShard constructs fleet shard k in isolation: the returned
// responders are byte-identical — same DER, same keys, same profiles — to
// Responders[k*ShardSize:...] of a full Build with the same config, before
// target population (Build fills each responder's DB afterwards). The
// shard gets its own simulated clock at Config.Start, like a fresh build.
//
//lint:allow unused the oracle TestBuildShardPurity compares Build's shards against (DESIGN.md §13)
func BuildShard(cfg Config, k int) ([]*ResponderInfo, error) {
	cfg = cfg.withDefaults()
	shards := (cfg.Responders + ShardSize - 1) / ShardSize
	if k < 0 || k >= shards {
		return nil, fmt.Errorf("world: shard %d out of range [0, %d)", k, shards)
	}
	specs := buildSpecs(cfg.Responders, childRNG(cfg.Seed, streamSpecs, 0), cfg)
	lo, hi := shardBounds(k, cfg.Responders)
	return buildResponderRange(cfg, specs, clock.NewSimulated(cfg.Start), lo, hi)
}

// buildResponderRange constructs responders [lo, hi), each from its own
// child seed — the shared worker between Build and BuildShard.
func buildResponderRange(cfg Config, specs []profileSpec, clk clock.Clock, lo, hi int) ([]*ResponderInfo, error) {
	out := make([]*ResponderInfo, 0, hi-lo)
	for i := lo; i < hi; i++ {
		info, err := buildResponder(cfg, specs[i], clk, i)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	return out, nil
}

// buildResponder constructs fleet member i: its CA hierarchy from the
// (streamResponderCA, i) child RNG, its behavior profile from the
// precomputed spec, and the responder serving both.
func buildResponder(cfg Config, spec profileSpec, clk clock.Clock, i int) (*ResponderInfo, error) {
	host := hostName(i)
	ca, err := pki.NewRootCA(pki.Config{
		Name:       fmt.Sprintf("CA %03d (%s)", i, host),
		Rand:       childRNG(cfg.Seed, streamResponderCA, uint64(i)),
		OCSPURL:    "http://" + host,
		CRLURL:     fmt.Sprintf("http://crl%03d.world.test/ca.crl", i),
		SerialBase: int64(i) * 1_000_000,
		NotBefore:  cfg.Start.AddDate(-2, 0, 0),
	})
	if err != nil {
		return nil, fmt.Errorf("world: responder %d CA: %w", i, err)
	}
	profile := spec.profile
	for c := 0; c < spec.superfluousCertCount; c++ {
		profile.SuperfluousCerts = append(profile.SuperfluousCerts, ca.Certificate)
	}
	db := responder.NewDB()
	r := responder.New(host, ca, db, clk, profile, cfg.responderOpts()...)
	return &ResponderInfo{
		Index: i, Host: host, Kind: spec.kind,
		CA: ca, DB: db, Responder: r, Profile: profile,
	}, nil
}
