package census

import (
	"sort"

	"github.com/netmeasure/muststaple/internal/hashx"
)

// CorpusShardSize is the general-population records per RNG shard. Shard
// k covers record indices [k*CorpusShardSize, (k+1)*CorpusShardSize) of
// the stream and draws them, in order, from its own child RNG seeded by
// (Seed, k), so every record is a pure function of (Seed, ScaleFactor,
// index). The shard is only this seed partition: Visit never holds more
// than the record it is passing on.
const CorpusShardSize = 1 << 16

// CorpusConfig configures a streaming corpus.
type CorpusConfig struct {
	// Seed drives all randomness; equal seeds give equal corpora.
	Seed int64
	// ScaleFactor is how many real certificates one generated record
	// represents; 0 means 10,000 (≈49k records). 1 is the paper's full
	// 489,580,002. The exact Must-Staple tier is always generated 1:1.
	ScaleFactor int
}

// Corpus is the streaming certificate corpus, consumable one record at a
// time in fixed memory. The stream order is fixed: the general population
// in record order, then the exact Must-Staple tier.
type Corpus struct {
	cfg     CorpusConfig
	records int // general population
}

// NewCorpus sizes a corpus; nothing is generated until Visit.
func NewCorpus(cfg CorpusConfig) *Corpus {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 10_000
	}
	return &Corpus{cfg: cfg, records: PaperTotalCerts / cfg.ScaleFactor}
}

// ScaleFactor returns how many real certificates one record represents.
func (c *Corpus) ScaleFactor() int { return c.cfg.ScaleFactor }

// NumRecords returns the general-population record count (the exact
// Must-Staple tier adds PaperMustStapleCerts more).
func (c *Corpus) NumRecords() int { return c.records }

// Visit streams every record — the scaled general population, then the
// exact Must-Staple tier — through fn on the caller's goroutine, stopping
// at the first error. Each record is drawn as fn needs it, so memory does
// not grow with the corpus.
func (c *Corpus) Visit(fn func(CertInfo) error) error {
	for k := 0; k*CorpusShardSize < c.records; k++ {
		if err := c.visitShard(k, fn); err != nil {
			return err
		}
	}
	return visitMustStapleTier(fn)
}

// visitShard streams general-population shard k from its child RNG.
func (c *Corpus) visitShard(k int, fn func(CertInfo) error) error {
	lo := k * CorpusShardSize
	hi := min(lo+CorpusShardSize, c.records)
	rng := hashx.ChildRNG(c.cfg.Seed, streamCorpusShard, uint64(k))
	validP := float64(PaperValidCerts) / float64(PaperTotalCerts)
	ocspP := float64(PaperOCSPCerts) / float64(PaperValidCerts)
	for i := lo; i < hi; i++ {
		info := CertInfo{CA: pickCA(rng)}
		info.Valid = rng.Float64() < validP
		if info.Valid {
			info.SupportsOCSP = rng.Float64() < ocspP
		} else {
			// Invalid certs (self-signed and friends) mostly lack OCSP.
			info.SupportsOCSP = rng.Float64() < 0.2
		}
		if err := fn(info); err != nil {
			return err
		}
	}
	return nil
}

// visitMustStapleTier streams the exact Must-Staple population: every such
// certificate is valid, supports OCSP (stapling without a responder is
// meaningless), and has the paper's CA attribution, in sorted CA order so
// the stream layout is deterministic (map iteration order is not).
func visitMustStapleTier(fn func(CertInfo) error) error {
	cas := make([]string, 0, len(PaperMustStapleByCA))
	for ca := range PaperMustStapleByCA {
		cas = append(cas, ca)
	}
	sort.Strings(cas)
	for _, ca := range cas {
		info := CertInfo{CA: ca, Valid: true, SupportsOCSP: true, MustStaple: true}
		for i := 0; i < PaperMustStapleByCA[ca]; i++ {
			if err := fn(info); err != nil {
				return err
			}
		}
	}
	return nil
}

// Stats measures the corpus the way §4 does, streaming: scaled counts for
// the general population, exact counts for the Must-Staple tier.
func (c *Corpus) Stats() SnapshotStats {
	scale := c.cfg.ScaleFactor
	st := SnapshotStats{MustStapleByCA: make(map[string]int)}
	if err := c.Visit(func(info CertInfo) error {
		if info.MustStaple {
			if info.Valid {
				st.MustStaple++
				st.MustStapleByCA[info.CA]++
			}
			return nil
		}
		st.Total += scale
		if info.Valid {
			st.Valid += scale
			if info.SupportsOCSP {
				st.OCSP += scale
			}
		}
		return nil
	}); err != nil {
		panic("census: " + err.Error()) // unreachable: fn never fails
	}
	if st.Valid > 0 {
		st.OCSPFractionOfValid = float64(st.OCSP) / float64(st.Valid)
		st.MustStapleFractionOfValid = float64(st.MustStaple) / float64(st.Valid)
	}
	return st
}
