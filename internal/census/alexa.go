package census

import (
	"github.com/netmeasure/muststaple/internal/hashx"
	"github.com/netmeasure/muststaple/internal/stats"
)

// AlexaDomain is one entry of the synthetic Alexa Top-1M model.
type AlexaDomain struct {
	// Rank is the 0-based popularity rank.
	Rank int
	// HTTPS marks domains serving a trusted certificate.
	HTTPS bool
	// OCSP marks HTTPS domains whose certificate carries an OCSP URL.
	OCSP bool
	// Stapling marks OCSP domains whose server staples responses in the
	// TLS handshake (§7.1).
	Stapling bool
	// MustStaple marks the ~100 Alexa certificates with the extension.
	MustStaple bool
	// CA is the issuing CA.
	CA string
	// ResponderIndex assigns the domain to one of the popular-CA OCSP
	// responders (the Alexa1M dataset covered 128 responders); -1 for
	// non-OCSP domains.
	ResponderIndex int
}

// AlexaConfig configures NewAlexaModel.
type AlexaConfig struct {
	Seed int64
	// Domains is the number of generated domains; 0 means 100,000.
	// Figures 2 and 11 are rate curves, so their shape is scale-free;
	// ScaleFactor relates generated domains to the real 1M.
	Domains int
	// Responders is how many distinct responders serve the population;
	// 0 means 128, the Alexa1M figure.
	Responders int
	// MustStapleDomains is the count of Must-Staple Alexa domains;
	// 0 means the paper's 100.
	MustStapleDomains int
}

func (c *AlexaConfig) domains() int {
	if c.Domains <= 0 {
		return 100_000
	}
	return c.Domains
}

func (c *AlexaConfig) responders() int {
	if c.Responders <= 0 {
		return 128
	}
	return c.Responders
}

func (c *AlexaConfig) mustStaple() int {
	if c.MustStapleDomains <= 0 {
		return 100
	}
	return c.MustStapleDomains
}

// ScaleFactor returns how many real Alexa domains one generated domain
// represents.
func (c *AlexaConfig) ScaleFactor() int {
	return 1_000_000 / c.domains()
}

// Adoption-rate curves calibrated to Figures 2 and 11: x is the
// fractional rank in [0, 1).
//
// HTTPS support is "close to 75% across the entire range"; OCSP adoption
// among certificate-bearing domains averages 91.3% and is slightly higher
// for popular domains; stapling is roughly 35% overall and noticeably
// higher for popular domains.
func httpsRate(x float64) float64    { return 0.78 - 0.06*x }
func ocspRate(x float64) float64     { return 0.935 - 0.04*x }
func staplingRate(x float64) float64 { return 0.45 - 0.20*x }

// alexaShardSize is the domains per generator shard. Shard k covers ranks
// [k*alexaShardSize, (k+1)*alexaShardSize) and is a pure function of
// (Seed, k), so the model streams in fixed memory at any population size.
const alexaShardSize = 8192

// AlexaModel is the streaming Alexa domain model, consumable rank by rank
// in fixed memory.
//
// The exact Must-Staple population can't be decided per-domain (a
// per-record coin flip gives a binomial count, not the paper's exact 100),
// so construction makes a counting pass over the stream first: it counts
// the OCSP-supporting domains, then draws exactly mustStaple() distinct
// positions within that subsequence from a dedicated child stream. Visit
// marks those positions as it streams — two passes, still O(shard) memory.
type AlexaModel struct {
	cfg       AlexaConfig
	ocspTotal int
	// msAt marks positions within the OCSP subsequence that carry the
	// Must-Staple extension.
	msAt map[int]bool
}

// NewAlexaModel sizes the model and fixes the Must-Staple placement.
func NewAlexaModel(cfg AlexaConfig) *AlexaModel {
	m := &AlexaModel{cfg: cfg}
	n := cfg.domains()
	for k := 0; k*alexaShardSize < n; k++ {
		visitAlexaShard(cfg, k, func(d AlexaDomain) {
			if d.OCSP {
				m.ocspTotal++
			}
		})
	}
	want := cfg.mustStaple()
	if want > m.ocspTotal {
		want = m.ocspTotal
	}
	m.msAt = make(map[int]bool, want)
	if want > 0 {
		rng := hashx.ChildRNG(cfg.Seed, streamAlexaMustStaple, 0)
		for len(m.msAt) < want {
			m.msAt[rng.Intn(m.ocspTotal)] = true
		}
	}
	return m
}

// NumDomains returns the modelled population size.
func (m *AlexaModel) NumDomains() int { return m.cfg.domains() }

// Visit streams the model in rank order through fn, stopping at the first
// error.
func (m *AlexaModel) Visit(fn func(AlexaDomain) error) error {
	n := m.cfg.domains()
	ocspIdx := 0
	var visitErr error
	for k := 0; k*alexaShardSize < n && visitErr == nil; k++ {
		visitAlexaShard(m.cfg, k, func(d AlexaDomain) {
			if visitErr != nil {
				return
			}
			if d.OCSP {
				d.MustStaple = m.msAt[ocspIdx]
				ocspIdx++
			}
			visitErr = fn(d)
		})
	}
	return visitErr
}

// visitAll is Visit for consumers that cannot fail.
func (m *AlexaModel) visitAll(fn func(AlexaDomain)) {
	if err := m.Visit(func(d AlexaDomain) error {
		fn(d)
		return nil
	}); err != nil {
		panic("census: " + err.Error()) // unreachable: fn never fails
	}
}

// visitAlexaShard generates shard k of the domain model — without the
// Must-Staple marks, which are a whole-population property layered on by
// AlexaModel.Visit. Responder assignment is Zipf-ish: popular CAs (low
// responder indices) serve most domains, matching the paper's observation
// that popular domains' certificates are concentrated on a small number
// of responders (§5.2 "Impact of Outages").
func visitAlexaShard(cfg AlexaConfig, k int, fn func(AlexaDomain)) {
	n := cfg.domains()
	nResp := cfg.responders()
	lo := k * alexaShardSize
	hi := lo + alexaShardSize
	if hi > n {
		hi = n
	}
	rng := hashx.ChildRNG(cfg.Seed, streamAlexaShard, uint64(k))
	for i := lo; i < hi; i++ {
		x := float64(i) / float64(n)
		d := AlexaDomain{
			Rank:           i,
			ResponderIndex: -1,
		}
		d.HTTPS = rng.Float64() < httpsRate(x)
		if d.HTTPS {
			d.OCSP = rng.Float64() < ocspRate(x)
		}
		if d.OCSP {
			d.Stapling = rng.Float64() < staplingRate(x)
			// Zipf-ish responder pick: squaring the uniform draw
			// concentrates mass on low indices.
			u := rng.Float64()
			d.ResponderIndex = int(u * u * float64(nResp))
			if d.ResponderIndex >= nResp {
				d.ResponderIndex = nResp - 1
			}
			d.CA = caShare[d.ResponderIndex%len(caShare)].Name
		}
		fn(d)
	}
}

// Stats measures the model, streaming.
func (m *AlexaModel) Stats() AlexaStats {
	var st AlexaStats
	seen := map[int]bool{}
	m.visitAll(func(d AlexaDomain) {
		st.Domains++
		if d.HTTPS {
			st.HTTPS++
		}
		if d.OCSP {
			st.OCSP++
			seen[d.ResponderIndex] = true
		}
		if d.Stapling {
			st.Stapling++
		}
		if d.MustStaple {
			st.MustStaple++
		}
	})
	if st.HTTPS > 0 {
		st.OCSPRate = float64(st.OCSP) / float64(st.HTTPS)
	}
	if st.OCSP > 0 {
		st.StaplingRate = float64(st.Stapling) / float64(st.OCSP)
	}
	st.RespondersSeen = len(seen)
	st.ScaledMustStaple = st.MustStaple
	return st
}

// Figure2 bins the streamed model into rank bins: the fraction of domains
// with a trusted certificate (HTTPS), and the fraction of those whose
// certificate has an OCSP responder.
func (m *AlexaModel) Figure2(binWidth int) (https, ocspOfHTTPS []stats.BinRate) {
	hb := stats.NewRankBins(binWidth)
	ob := stats.NewRankBins(binWidth)
	m.visitAll(func(d AlexaDomain) {
		hb.Add(d.Rank, d.HTTPS)
		if d.HTTPS {
			ob.Add(d.Rank, d.OCSP)
		}
	})
	return hb.Rates(), ob.Rates()
}

// Figure11 returns the fraction of OCSP-supporting domains that staple,
// per rank bin, streaming.
func (m *AlexaModel) Figure11(binWidth int) []stats.BinRate {
	b := stats.NewRankBins(binWidth)
	m.visitAll(func(d AlexaDomain) {
		if d.OCSP {
			b.Add(d.Rank, d.Stapling)
		}
	})
	return b.Rates()
}

// AlexaStats are the §4/§7.1 headline numbers for the Alexa model.
type AlexaStats struct {
	Domains          int
	HTTPS            int
	OCSP             int
	Stapling         int
	MustStaple       int
	OCSPRate         float64 // of HTTPS domains
	StaplingRate     float64 // of OCSP domains
	RespondersSeen   int
	ScaledMustStaple int // not scaled — exact, mirrors the paper's 100
}
