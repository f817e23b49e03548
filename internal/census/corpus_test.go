package census

import (
	"reflect"
	"testing"
)

// drain collects a corpus stream into a slice.
func drain(t *testing.T, c *Corpus) []CertInfo {
	t.Helper()
	var out []CertInfo
	if err := c.Visit(func(info CertInfo) error {
		out = append(out, info)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCorpusStreamMatchesSnapshot pins the stream against an independent
// reference: every shard generated on its own with CorpusShard, in index
// order, then the exact Must-Staple tier in sorted CA order.
func TestCorpusStreamMatchesSnapshot(t *testing.T) {
	for _, seed := range []int64{1, 99} {
		cfg := CorpusConfig{Seed: seed}
		c, err := NewCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var want []CertInfo
		for k := 0; k < c.NumShards(); k++ {
			want = append(want, CorpusShard(cfg, k)...)
		}
		if len(want) != c.NumRecords() {
			t.Fatalf("seed %d: shards hold %d records, corpus declares %d", seed, len(want), c.NumRecords())
		}
		for _, ca := range []string{"Comodo", "DFN", "Let's Encrypt", "UserTrust"} {
			for i := 0; i < PaperMustStapleByCA[ca]; i++ {
				want = append(want, CertInfo{CA: ca, Valid: true, SupportsOCSP: true, MustStaple: true})
			}
		}
		if !reflect.DeepEqual(drain(t, c), want) {
			t.Fatalf("seed %d: streamed corpus diverges from its shards plus the Must-Staple tier", seed)
		}
	}
}

// TestCorpusShardPurity: shard k generated in isolation is identical to
// shard k cut out of the full stream, for a non-default seed and scale.
func TestCorpusShardPurity(t *testing.T) {
	cfg := CorpusConfig{Seed: 99, ScaleFactor: 2000} // ≈244k records, 4 shards
	c, err := NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() < 3 {
		t.Fatalf("want ≥3 shards for a meaningful cut, got %d", c.NumShards())
	}
	full := drain(t, c)[:c.NumRecords()] // general population only
	for k := 0; k < c.NumShards(); k++ {
		shard := CorpusShard(cfg, k)
		lo := k * CorpusShardSize
		hi := lo + len(shard)
		if hi > len(full) || !reflect.DeepEqual(shard, full[lo:hi]) {
			t.Fatalf("shard %d generated in isolation diverges from the full stream", k)
		}
	}
}

// TestCorpusWorkerEquivalence: the stream is identical for every worker
// count — serial reference, small pool, oversubscribed pool.
func TestCorpusWorkerEquivalence(t *testing.T) {
	base := CorpusConfig{Seed: 7, ScaleFactor: 2000}
	var want []CertInfo
	for _, workers := range []int{1, 2, 8} {
		cfg := base
		cfg.Workers = workers
		c, err := NewCorpus(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(t, c)
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("corpus stream with %d workers diverges from serial reference", workers)
		}
	}
}

// TestCorpusVisitEarlyStop: a consumer error stops the stream without
// deadlocking the producer pool.
func TestCorpusVisitEarlyStop(t *testing.T) {
	c, err := NewCorpus(CorpusConfig{Seed: 1, ScaleFactor: 2000, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errStop{}
	n := 0
	err = c.Visit(func(CertInfo) error {
		n++
		if n == 100 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("Visit error = %v, want sentinel", err)
	}
	if n != 100 {
		t.Fatalf("fn called %d times after stop, want 100", n)
	}
}

type errStop struct{}

func (errStop) Error() string { return "stop" }

// TestCorpusSpillRoundTrip: a spilled corpus streams back identically to
// the generated one, a matching directory is reused, and a mismatched
// directory is refused.
func TestCorpusSpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cfg := CorpusConfig{Seed: 5, ScaleFactor: 5000, SpillDir: dir}
	spilled, err := NewCorpus(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !spilled.Spilled() {
		t.Fatal("corpus with SpillDir not marked spilled")
	}
	gen, err := NewCorpus(CorpusConfig{Seed: 5, ScaleFactor: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(drain(t, spilled), drain(t, gen)) {
		t.Fatal("spilled corpus stream diverges from generated stream")
	}

	// Reuse: same config opens the existing spill without error.
	again, err := NewCorpus(cfg)
	if err != nil {
		t.Fatalf("reusing a matching spill dir: %v", err)
	}
	if !reflect.DeepEqual(drain(t, again), drain(t, gen)) {
		t.Fatal("reused spill stream diverges")
	}

	// OpenSpilledCorpus recovers the same stream from the meta alone.
	opened, err := OpenSpilledCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if opened.ScaleFactor() != 5000 {
		t.Fatalf("opened scale = %d, want 5000", opened.ScaleFactor())
	}
	if !reflect.DeepEqual(drain(t, opened), drain(t, gen)) {
		t.Fatal("opened spill stream diverges")
	}

	// Mismatch: a different seed must be refused, not silently served the
	// old corpus.
	if _, err := NewCorpus(CorpusConfig{Seed: 6, ScaleFactor: 5000, SpillDir: dir}); err == nil {
		t.Fatal("spill dir with a different corpus was accepted")
	}
}

// TestAlexaModelStreamMatchesGenerate pins the Alexa model's stream
// against its shards generated one by one, and checks the exact
// Must-Staple marks the stream layers on top.
func TestAlexaModelStreamMatchesGenerate(t *testing.T) {
	cfg := AlexaConfig{Seed: 99, Domains: 50_000}
	m := NewAlexaModel(cfg)
	var generated []AlexaDomain
	for k := 0; k*alexaShardSize < cfg.Domains; k++ {
		visitAlexaShard(cfg, k, func(d AlexaDomain) { generated = append(generated, d) })
	}
	ms := 0
	if err := m.Visit(func(d AlexaDomain) error {
		if d.Rank >= len(generated) {
			t.Fatalf("stream runs past the generated shards at rank %d", d.Rank)
		}
		if d.MustStaple {
			ms++
			if !d.OCSP {
				t.Fatalf("rank %d: Must-Staple without OCSP", d.Rank)
			}
		}
		unmarked := d
		unmarked.MustStaple = false
		if unmarked != generated[d.Rank] {
			t.Fatalf("rank %d: streamed %+v, generated %+v", d.Rank, d, generated[d.Rank])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ms != 100 {
		t.Fatalf("streamed model has %d Must-Staple domains, want exactly 100", ms)
	}
	if st := m.Stats(); st.MustStaple != 100 || st.Domains != 50_000 {
		t.Fatalf("streaming stats = %+v, want 100 Must-Staple over 50000 domains", st)
	}
}
