package census

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
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

// shardRecords visits general-population shard k of c on its own.
func shardRecords(t *testing.T, c *Corpus, k int) []CertInfo {
	t.Helper()
	var out []CertInfo
	if err := c.visitShard(k, func(info CertInfo) error {
		out = append(out, info)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// numShards is how many RNG shards c's general population spans.
func numShards(c *Corpus) int {
	return (c.NumRecords() + CorpusShardSize - 1) / CorpusShardSize
}

// TestCorpusStreamMatchesSnapshot pins the stream's layout: every shard
// visited on its own, in index order, then the exact Must-Staple tier in
// sorted CA order.
func TestCorpusStreamMatchesSnapshot(t *testing.T) {
	for _, seed := range []int64{1, 99} {
		c := NewCorpus(CorpusConfig{Seed: seed})
		var want []CertInfo
		for k := 0; k < numShards(c); k++ {
			want = append(want, shardRecords(t, c, k)...)
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

// TestCorpusStreamDigests pins every record of two corpora — CA and
// flags, in stream order — to SHA-256 digests recorded from the
// shard-pipeline generator this stream replaced, so a change to the draw
// order, the shard partition or the tier layout fails here.
func TestCorpusStreamDigests(t *testing.T) {
	for _, tc := range []struct {
		cfg     CorpusConfig
		records int
		digest  string
	}{
		{CorpusConfig{Seed: 1}, 78_667, "5ef3275253b0bd13c9bd9993233cb9fa819f199f50268d9fc132d033fe7fa7ac"},
		// ≈244k general-population records: four shards, one partial.
		{CorpusConfig{Seed: 99, ScaleFactor: 2000}, 274_499, "ba8ba5de6ea73fe0a007eda930e98f548644a506a3c6848c16df327d4f05b762"},
	} {
		h := sha256.New()
		n := 0
		if err := NewCorpus(tc.cfg).Visit(func(info CertInfo) error {
			var flags byte
			if info.Valid {
				flags |= 1
			}
			if info.SupportsOCSP {
				flags |= 2
			}
			if info.MustStaple {
				flags |= 4
			}
			h.Write([]byte(info.CA))
			h.Write([]byte{flags})
			n++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); n != tc.records || got != tc.digest {
			t.Errorf("%+v: %d records, sha256 %s; want %d, %s", tc.cfg, n, got, tc.records, tc.digest)
		}
	}
}

// TestCorpusShardPurity: shard k visited on its own, out of order, is
// identical to shard k cut out of the full stream, for a non-default seed
// and scale — no shard depends on another having been drawn first.
func TestCorpusShardPurity(t *testing.T) {
	c := NewCorpus(CorpusConfig{Seed: 99, ScaleFactor: 2000}) // ≈244k records, 4 shards
	if numShards(c) < 3 {
		t.Fatalf("want ≥3 shards for a meaningful cut, got %d", numShards(c))
	}
	full := drain(t, c)[:c.NumRecords()] // general population only
	for k := numShards(c) - 1; k >= 0; k-- {
		shard := shardRecords(t, NewCorpus(CorpusConfig{Seed: 99, ScaleFactor: 2000}), k)
		lo := k * CorpusShardSize
		hi := lo + len(shard)
		if hi > len(full) || !reflect.DeepEqual(shard, full[lo:hi]) {
			t.Fatalf("shard %d visited on its own diverges from the full stream", k)
		}
	}
}

// TestCorpusVisitEarlyStop: a consumer error stops the stream at once, in
// the general population and in the Must-Staple tier alike.
func TestCorpusVisitEarlyStop(t *testing.T) {
	c := NewCorpus(CorpusConfig{Seed: 1, ScaleFactor: 2000})
	sentinel := errStop{}
	for _, stopAt := range []int{100, c.NumRecords() + 100} {
		n := 0
		err := c.Visit(func(CertInfo) error {
			n++
			if n == stopAt {
				return sentinel
			}
			return nil
		})
		if err != sentinel {
			t.Fatalf("stop at %d: Visit error = %v, want sentinel", stopAt, err)
		}
		if n != stopAt {
			t.Fatalf("stop at %d: fn called %d times", stopAt, n)
		}
	}
}

type errStop struct{}

func (errStop) Error() string { return "stop" }

// TestCorpusVisitAllocsPerShard is the fixed-memory guarantee: a visit
// allocates a child RNG per shard and the tier's CA list, never per
// record, so nothing the size of a shard is ever held.
func TestCorpusVisitAllocsPerShard(t *testing.T) {
	c := NewCorpus(CorpusConfig{Seed: 1, ScaleFactor: 2000})
	allocs := testing.AllocsPerRun(3, func() {
		if err := c.Visit(func(CertInfo) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	// Two objects (rand.Rand and its source) per shard, one CA slice.
	if limit := float64(2*numShards(c) + 1); allocs > limit {
		t.Fatalf("Visit over %d records allocates %.0f objects, want <= %.0f", c.NumRecords(), allocs, limit)
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

// TestCAIndexMatchesLinearScan checks the guide-table CA pick against the
// plain cumulative scan it replaced, at every cumulative share and bucket
// edge, one ulp either side of each, and over a million seeded draws.
func TestCAIndexMatchesLinearScan(t *testing.T) {
	linear := func(x float64) int {
		acc := 0.0
		for i, cs := range caShare {
			acc += cs.Share
			if x < acc {
				return i
			}
		}
		return len(caShare) - 1
	}
	xs := []float64{0, math.Nextafter(1, 0)}
	for _, c := range caCumShare {
		xs = append(xs, math.Nextafter(c, 0), c, math.Nextafter(c, 1))
	}
	for b := 1; b < len(caGuide); b++ {
		edge := float64(b) / float64(len(caGuide))
		xs = append(xs, math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		xs = append(xs, rng.Float64())
	}
	for _, x := range xs {
		if x < 0 || x >= 1 {
			continue
		}
		if got, want := caIndex(x), linear(x); got != want {
			t.Fatalf("caIndex(%v) = %d, linear scan gives %d", x, got, want)
		}
	}
}
