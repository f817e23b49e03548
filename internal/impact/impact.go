// Package impact quantifies the question §8 of the paper leaves open: if
// browsers hard-failed on missing staples today (as OCSP Must-Staple
// demands), how many TLS connections would actually break, and how much of
// that is the web server's stapling policy rather than the responders?
//
// The paper argues responders "would not be a barrier ... as most failures
// persist far shorter than most OCSP responses' validity periods" provided
// servers are not "very aggressive" about discarding responses. This
// analysis runs that argument: it replays a measurement campaign's
// per-(responder, vantage) timeline through four webserver.Policy rows —
// a server with no cache, Apache, Nginx, and the paper's recommended
// retain-until-expiry policy — and counts the handshakes a
// Must-Staple-respecting client would reject under each. Each observation
// is one handshake at its instant; the server fetches when its policy says
// the handshake is due, and that fetch yields the observation's outcome.
package impact

import (
	"github.com/netmeasure/muststaple/internal/scanner"
	"github.com/netmeasure/muststaple/internal/webserver"
)

// policies are the replayed server models, in presentation order.
var policies = [...]webserver.Policy{
	webserver.NoCachePolicy(),
	webserver.ApachePolicy(),
	webserver.NginxPolicy(),
	webserver.CorrectPolicy(),
}

// HardFail is a scanner.Aggregator replaying observations through the
// server policies.
type HardFail struct {
	// held is each pair's stapling state, indexed like policies.
	held map[pair]*[len(policies)]webserver.Held
	// ok counts, per policy, the handshakes a hard-failing client
	// accepts.
	ok    [len(policies)]int
	total int
}

// pair names one (responder, vantage) timeline.
type pair struct{ responder, vantage string }

// NewHardFail returns an empty analysis.
func NewHardFail() *HardFail {
	return &HardFail{held: make(map[pair]*[len(policies)]webserver.Held)}
}

// Add implements scanner.Aggregator: each observation is one client
// handshake at its instant, and the outcome of any fetch the handshake
// makes.
func (h *HardFail) Add(o scanner.Observation) {
	key := pair{o.Responder, o.Vantage}
	held := h.held[key]
	if held == nil {
		held = new([len(policies)]webserver.Held)
		h.held[key] = held
	}
	f := webserver.Observed(o)
	h.total++
	for i := range policies {
		p, before := &policies[i], held[i]
		var fetched *webserver.Fetched
		if p.Due(before, o.At) {
			held[i], _ = p.Apply(before, f, o.At)
			fetched = &f
		}
		if p.Staple(before, o.At, fetched) && held[i].Accepted(o.At) {
			h.ok[i]++
		}
	}
}

// Result is one policy's outcome.
type Result struct {
	// Model is the server policy's name.
	Model string
	// BrokenFraction is the share of handshakes a hard-failing client
	// would reject under this server policy.
	BrokenFraction float64
	// Handshakes is the replayed connection count.
	Handshakes int
}

// Results returns per-policy breakage, in presentation order.
func (h *HardFail) Results() []Result {
	out := make([]Result, len(policies))
	for i, p := range policies {
		out[i] = Result{Model: p.Name, Handshakes: h.total}
		if h.total > 0 {
			out[i].BrokenFraction = 1 - float64(h.ok[i])/float64(h.total)
		}
	}
	return out
}
