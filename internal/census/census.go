// Package census is the Censys substitute: a seeded synthetic certificate
// corpus and Alexa Top-1M domain model with marginals calibrated to the
// paper's April 2018 snapshot (§4), the stapling-adoption measurements of
// §7.1 (Figures 2, 11, 12), and the CDN-cache perspective of §5.2.
//
// Populations the paper reports in the hundreds of millions are generated
// at a configurable scale factor; counts the paper reports exactly (the
// 29,709 Must-Staple certificates and their CA breakdown, the 100
// Must-Staple Alexa domains) are represented one-to-one.
package census

import "math/rand"

// CertInfo is the per-certificate metadata the §4 analysis needs.
type CertInfo struct {
	// CA is the issuing CA's name.
	CA string
	// Valid marks the certificate trusted by at least one of the
	// Apple/Microsoft/NSS root stores (the paper analyzes only these).
	Valid bool
	// SupportsOCSP marks an AIA extension with at least one OCSP URL.
	SupportsOCSP bool
	// MustStaple marks the TLS-Feature status_request extension.
	MustStaple bool
}

// Paper-calibrated constants from the April 24, 2018 Censys snapshot.
const (
	// PaperTotalCerts is every certificate Censys had aggregated.
	PaperTotalCerts = 489_580_002
	// PaperValidCerts are those trusted by at least one root store.
	PaperValidCerts = 112_841_653
	// PaperOCSPCerts are valid certificates with an OCSP responder
	// (95.4%).
	PaperOCSPCerts = 107_664_132
	// PaperMustStapleCerts is the total Must-Staple population (0.02%
	// of valid certificates).
	//lint:allow unused the §4 paper target the census tests and root benchmarks check the corpus against
	PaperMustStapleCerts = 29_709
)

// PaperMustStapleByCA is the exact Must-Staple CA breakdown of §4.
// (28,919 of 29,709 — 97.3% — come from Let's Encrypt.)
var PaperMustStapleByCA = map[string]int{
	"Let's Encrypt": 28_919,
	"DFN":           716,
	"Comodo":        73,
	"UserTrust":     1,
}

// caShare is the approximate 2018 issuance share of major CAs among valid
// certificates, used to attribute the non-Must-Staple population.
var caShare = []struct {
	Name  string
	Share float64
}{
	{"Let's Encrypt", 0.38},
	{"Comodo", 0.20},
	{"DigiCert", 0.12},
	{"GoDaddy", 0.07},
	{"GlobalSign", 0.05},
	{"Certum", 0.03},
	{"StartCom", 0.02},
	{"Sectigo", 0.02},
	{"Entrust", 0.02},
	{"Other", 0.09},
}

// caCumShare[i] is the summed share of caShare[0..i], added in list order.
var caCumShare = func() []float64 {
	out := make([]float64, len(caShare))
	acc := 0.0
	for i, cs := range caShare {
		acc += cs.Share
		out[i] = acc
	}
	return out
}()

// caGuide is a guide table over caCumShare: caGuide[b] is caIndex of the
// draw b/len(caGuide), so no draw in bucket b maps to an earlier CA.
var caGuide = func() (out [1024]uint8) {
	for b := range out {
		out[b] = uint8(caIndexFrom(0, float64(b)/float64(len(out))))
	}
	return out
}()

// pickCA attributes one certificate to a CA by one uniform draw.
func pickCA(rng *rand.Rand) string {
	return caShare[caIndex(rng.Float64())].Name
}

// caIndex returns the first CA whose cumulative share exceeds x in
// [0, 1), or the last CA if none does. The scan starts at x's guide-table
// bucket, so it almost never advances: a scan from the first CA
// mispredicts a branch on most records, which cost a third of the corpus
// stream's time.
func caIndex(x float64) int {
	// Scaling by a power of two is exact, so the bucket's lower edge is
	// at or below x.
	return caIndexFrom(int(caGuide[int(x*float64(len(caGuide)))]), x)
}

func caIndexFrom(i int, x float64) int {
	for i < len(caShare)-1 && x >= caCumShare[i] {
		i++
	}
	return i
}

// SnapshotStats are the §4 headline numbers re-measured from a corpus
// snapshot (Corpus.Stats).
type SnapshotStats struct {
	// Scaled-up estimates for the general population.
	Total, Valid, OCSP int
	// Exact Must-Staple counts.
	MustStaple     int
	MustStapleByCA map[string]int
	// OCSPFractionOfValid is OCSP/Valid.
	OCSPFractionOfValid float64
	// MustStapleFractionOfValid is MustStaple/Valid.
	MustStapleFractionOfValid float64
}
