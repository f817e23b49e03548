package census

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/netmeasure/muststaple/internal/par"
	"github.com/netmeasure/muststaple/internal/store"
)

// CorpusShardSize is the general-population records per shard. Shard k
// covers record indices [k*CorpusShardSize, (k+1)*CorpusShardSize) of the
// record stream and is a pure function of (Seed, k): one child RNG per
// shard, drawn sequentially within it. 64Ki records ≈ 1–2 MB materialized,
// so a bounded worker pool holds only a few megabytes in flight no matter
// how large the corpus is.
const CorpusShardSize = 1 << 16

// CorpusConfig configures a streaming corpus.
type CorpusConfig struct {
	// Seed drives all randomness; equal seeds give equal corpora.
	Seed int64
	// ScaleFactor is how many real certificates one generated record
	// represents; 0 means 10,000 (≈49k records). 1 is the paper's full
	// 489,580,002. The exact Must-Staple tier is always generated 1:1.
	ScaleFactor int
	// Workers bounds the shard-generation pool: 0 means
	// runtime.GOMAXPROCS(0), 1 forces the serial reference stream. The
	// stream is identical for every worker count.
	Workers int
	// SpillDir, when non-empty, spills the corpus to store corpus
	// segments under this directory at construction and makes Visit read
	// them back instead of regenerating. A directory already holding this
	// exact (seed, scale) corpus is reused as-is; one holding a different
	// corpus is refused.
	SpillDir string
}

// Corpus is the streaming certificate corpus, consumable one record at a
// time in fixed memory. The stream order is fixed — general-population shards in index
// order, then the exact Must-Staple tier — and byte-identical whether
// records are generated serially, by a worker pool, or read back from a
// spill directory.
type Corpus struct {
	cfg     CorpusConfig
	records int // general population
	shards  int
	spilled bool
}

// newCorpus normalizes cfg and sizes the corpus without touching disk.
func newCorpus(cfg CorpusConfig) *Corpus {
	if cfg.ScaleFactor <= 0 {
		cfg.ScaleFactor = 10_000
	}
	n := PaperTotalCerts / cfg.ScaleFactor
	return &Corpus{
		cfg:     cfg,
		records: n,
		shards:  (n + CorpusShardSize - 1) / CorpusShardSize,
	}
}

// NewCorpus builds a corpus. With SpillDir set, the corpus is spilled (or
// an existing matching spill reused) before returning; without it,
// NewCorpus cannot fail.
func NewCorpus(cfg CorpusConfig) (*Corpus, error) {
	c := newCorpus(cfg)
	if c.cfg.SpillDir != "" {
		if err := c.spill(); err != nil {
			return nil, err
		}
		c.spilled = true
	}
	return c, nil
}

// OpenSpilledCorpus opens an existing committed spill directory without
// knowing its configuration up front (cmd/ocspdump's inspection path).
func OpenSpilledCorpus(dir string) (*Corpus, error) {
	meta, ok, err := store.ReadCorpusMeta(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("census: %s holds no committed corpus (missing %s meta)", dir, "corpus.json")
	}
	c := newCorpus(CorpusConfig{Seed: meta.Seed, ScaleFactor: meta.ScaleFactor, SpillDir: dir})
	if c.shards != meta.Shards || int64(c.records) != meta.Records {
		return nil, fmt.Errorf("census: %s meta (%d shards, %d records) does not match its declared scale %d",
			dir, meta.Shards, meta.Records, meta.ScaleFactor)
	}
	c.spilled = true
	return c, nil
}

// ScaleFactor returns how many real certificates one record represents.
func (c *Corpus) ScaleFactor() int { return c.cfg.ScaleFactor }

// NumRecords returns the general-population record count (the exact
// Must-Staple tier adds PaperMustStapleCerts more).
func (c *Corpus) NumRecords() int { return c.records }

// NumShards returns the general-population shard count.
func (c *Corpus) NumShards() int { return c.shards }

// Spilled reports whether Visit reads from disk rather than regenerating.
func (c *Corpus) Spilled() bool { return c.spilled }

func (c *Corpus) workers() int {
	w := c.cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > c.shards {
		w = c.shards
	}
	return w
}

// CorpusShard generates general-population shard k — a pure function of
// (cfg.Seed, cfg.ScaleFactor, k), independent of every other shard and of
// how the rest of the corpus is consumed.
func CorpusShard(cfg CorpusConfig, k int) []CertInfo {
	c := newCorpus(cfg)
	lo := k * CorpusShardSize
	hi := lo + CorpusShardSize
	if hi > c.records {
		hi = c.records
	}
	if lo >= hi {
		return nil
	}
	rng := childRNG(c.cfg.Seed, streamCorpusShard, uint64(k))
	validP := float64(PaperValidCerts) / float64(PaperTotalCerts)
	ocspP := float64(PaperOCSPCerts) / float64(PaperValidCerts)
	out := make([]CertInfo, 0, hi-lo)
	for i := lo; i < hi; i++ {
		info := CertInfo{CA: pickCA(rng)}
		info.Valid = rng.Float64() < validP
		if info.Valid {
			info.SupportsOCSP = rng.Float64() < ocspP
		} else {
			// Invalid certs (self-signed and friends) mostly lack OCSP.
			info.SupportsOCSP = rng.Float64() < 0.2
		}
		out = append(out, info)
	}
	return out
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

// Visit streams every record — the scaled general population in shard
// order, then the exact Must-Staple tier — through fn, stopping at the
// first error. Peak memory is bounded by the worker pool (at most
// workers+1 shards in flight), never by corpus size.
func (c *Corpus) Visit(fn func(CertInfo) error) error {
	if c.spilled {
		return store.ScanCorpus(c.cfg.SpillDir, func(rec store.CorpusRecord) error {
			return fn(CertInfo{
				CA:           rec.CA,
				Valid:        rec.Valid,
				SupportsOCSP: rec.SupportsOCSP,
				MustStaple:   rec.MustStaple,
			})
		})
	}
	if err := c.visitGenerated(fn); err != nil {
		return err
	}
	return visitMustStapleTier(fn)
}

// visitGenerated streams the general population. Workers generate shards
// ahead of the consumer through a bounded queue of single-use result
// channels: the queue's capacity is the pool bound, and draining it in
// enqueue order keeps the stream in shard order regardless of which shard
// finishes first.
func (c *Corpus) visitGenerated(fn func(CertInfo) error) error {
	workers := c.workers()
	if workers <= 1 {
		for k := 0; k < c.shards; k++ {
			for _, info := range CorpusShard(c.cfg, k) {
				if err := fn(info); err != nil {
					return err
				}
			}
		}
		return nil
	}
	queue := make(chan chan []CertInfo, workers)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(queue)
		for k := 0; k < c.shards; k++ {
			result := make(chan []CertInfo, 1)
			select {
			case queue <- result:
			case <-stop:
				return
			}
			go func(k int) { result <- CorpusShard(c.cfg, k) }(k)
		}
	}()
	for result := range queue {
		for _, info := range <-result {
			if err := fn(info); err != nil {
				return err
			}
		}
	}
	return nil
}

// spill writes the corpus to SpillDir as store corpus segments: one per
// general-population shard plus the Must-Staple tier as the final
// segment, with the meta file committed last. A directory whose committed
// meta already matches is reused without rewriting; a mismatch is refused
// rather than silently overwritten.
func (c *Corpus) spill() error {
	dir := c.cfg.SpillDir
	want := store.CorpusMeta{
		Version:     1,
		Seed:        c.cfg.Seed,
		ScaleFactor: c.cfg.ScaleFactor,
		Shards:      c.shards,
		Records:     int64(c.records),
	}
	meta, ok, err := store.ReadCorpusMeta(dir)
	if err != nil {
		return fmt.Errorf("census: spill: %w", err)
	}
	if ok {
		if meta == want {
			return nil
		}
		return fmt.Errorf("census: spill dir %s holds a different corpus (seed %d, scale %d); use a fresh directory",
			dir, meta.Seed, meta.ScaleFactor)
	}

	errs := make([]error, c.shards)
	par.For(c.shards, c.workers(), func(k int) {
		errs[k] = spillShard(dir, k, CorpusShard(c.cfg, k))
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("census: spill: %w", err)
		}
	}
	w, err := store.CreateCorpusSegment(dir, c.shards)
	if err != nil {
		return fmt.Errorf("census: spill: %w", err)
	}
	if err := visitMustStapleTier(func(info CertInfo) error {
		return w.Append(store.CorpusRecord{
			CA: info.CA, Valid: info.Valid, SupportsOCSP: info.SupportsOCSP, MustStaple: info.MustStaple,
		})
	}); err != nil {
		return fmt.Errorf("census: spill: %w", err)
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("census: spill: %w", err)
	}
	return store.WriteCorpusMeta(dir, want)
}

func spillShard(dir string, k int, infos []CertInfo) error {
	w, err := store.CreateCorpusSegment(dir, k)
	if err != nil {
		return err
	}
	for _, info := range infos {
		if err := w.Append(store.CorpusRecord{
			CA: info.CA, Valid: info.Valid, SupportsOCSP: info.SupportsOCSP, MustStaple: info.MustStaple,
		}); err != nil {
			return err
		}
	}
	return w.Close()
}

// Stats measures the corpus the way §4 does, streaming.
func (c *Corpus) Stats() (SnapshotStats, error) {
	acc := NewStatsAccumulator(c.cfg.ScaleFactor)
	if err := c.Visit(func(info CertInfo) error {
		acc.AddCert(info)
		return nil
	}); err != nil {
		return SnapshotStats{}, err
	}
	return acc.Stats(), nil
}

// StatsAccumulator folds a corpus stream into SnapshotStats: scaled counts
// for the general population, exact counts for the Must-Staple tier. It
// satisfies report.CertAggregator.
type StatsAccumulator struct {
	scale int
	st    SnapshotStats
}

// NewStatsAccumulator returns an accumulator for a corpus whose
// general-population records each represent scaleFactor real certificates.
func NewStatsAccumulator(scaleFactor int) *StatsAccumulator {
	if scaleFactor <= 0 {
		scaleFactor = 1
	}
	return &StatsAccumulator{scale: scaleFactor, st: SnapshotStats{MustStapleByCA: make(map[string]int)}}
}

// AddCert folds one record in. Must-Staple records are the exact tier and
// count 1:1; everything else is the scaled general population.
func (a *StatsAccumulator) AddCert(c CertInfo) {
	if c.MustStaple {
		if c.Valid {
			a.st.MustStaple++
			a.st.MustStapleByCA[c.CA]++
		}
		return
	}
	a.st.Total += a.scale
	if c.Valid {
		a.st.Valid += a.scale
		if c.SupportsOCSP {
			a.st.OCSP += a.scale
		}
	}
}

// Stats returns the accumulated §4 numbers.
func (a *StatsAccumulator) Stats() SnapshotStats {
	st := a.st
	st.MustStapleByCA = make(map[string]int, len(a.st.MustStapleByCA))
	for ca, n := range a.st.MustStapleByCA {
		st.MustStapleByCA[ca] = n
	}
	if st.Valid > 0 {
		st.OCSPFractionOfValid = float64(st.OCSP) / float64(st.Valid)
		st.MustStapleFractionOfValid = float64(st.MustStaple) / float64(st.Valid)
	}
	return st
}
