// Package impact quantifies the question §8 of the paper leaves open: if
// browsers hard-failed on missing staples today (as OCSP Must-Staple
// demands), how many TLS connections would actually break, and how much of
// that is the web server's stapling policy rather than the responders?
//
// The paper argues responders "would not be a barrier ... as most failures
// persist far shorter than most OCSP responses' validity periods" provided
// servers are not "very aggressive" about discarding responses. This
// analysis runs that argument: it replays a measurement campaign's
// per-(responder, vantage) timeline through three server models — one with
// no cache at all, an Apache-like drop-on-error cache, and the paper's
// recommended retain-until-expiry policy — and counts the handshakes a
// Must-Staple-respecting client would reject under each.
package impact

import (
	"fmt"
	"sort"
	"time"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// ServerModel selects a stapling-cache policy for the what-if replay.
type ServerModel int

const (
	// ModelNoCache staples only when the live fetch at handshake time
	// succeeds — the worst case (an on-demand, cacheless server).
	ModelNoCache ServerModel = iota
	// ModelApache keeps fetched responses but drops them whenever a
	// refresh fails (§7.2's measured Apache behavior), and staples
	// expired bytes — which a validating client rejects anyway.
	ModelApache
	// ModelCorrect retains the last valid response until its
	// nextUpdate while retrying (§8's recommendation).
	ModelCorrect
)

var modelNames = map[ServerModel]string{
	ModelNoCache: "no-cache",
	ModelApache:  "apache-like",
	ModelCorrect: "correct",
}

func (m ServerModel) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("model(%d)", int(m))
}

// Models lists the replayed policies in presentation order.
func Models() []ServerModel { return []ServerModel{ModelNoCache, ModelApache, ModelCorrect} }

// cacheState is one (responder, vantage, model) stapling cache.
type cacheState struct {
	hasResponse bool
	validFrom   time.Time // thisUpdate: a hard-fail client rejects earlier
	validUntil  time.Time // zero means blank nextUpdate: never expires
}

// usableAt applies the *client's* validation window: a staple is only
// worth sending if a hard-failing client would accept it now.
func (c *cacheState) usableAt(t time.Time) bool {
	if !c.hasResponse {
		return false
	}
	if t.Before(c.validFrom) {
		return false
	}
	return c.validUntil.IsZero() || !t.After(c.validUntil)
}

// HardFail is a scanner.Aggregator replaying observations through the
// server models.
type HardFail struct {
	states map[string]map[ServerModel]*cacheState
	// ok/total per model.
	ok    map[ServerModel]int
	total int
}

// NewHardFail returns an empty analysis.
func NewHardFail() *HardFail {
	return &HardFail{
		states: make(map[string]map[ServerModel]*cacheState),
		ok:     make(map[ServerModel]int),
	}
}

// Add implements scanner.Aggregator: each observation is simultaneously
// (a) the server's refresh attempt and (b) one client handshake at that
// instant.
func (h *HardFail) Add(o scanner.Observation) {
	key := o.Responder + "|" + o.Vantage
	perModel := h.states[key]
	if perModel == nil {
		perModel = make(map[ServerModel]*cacheState)
		for _, m := range Models() {
			perModel[m] = &cacheState{}
		}
		h.states[key] = perModel
	}

	fetchOK := o.Class.Usable()
	fresh := cacheState{hasResponse: fetchOK, validFrom: o.ThisUpdate}
	if o.HasNextUpdate {
		fresh.validUntil = o.NextUpdate
	}
	// What the client would say about the just-fetched response, right
	// now. Responders whose validity equals their update interval (the
	// hinet/cnnic hazard) or whose thisUpdate is in the future can hand
	// out responses that are unusable on arrival — those break
	// hard-failing clients under *every* server model.
	freshUsable := fetchOK && fresh.usableAt(o.At)

	h.total++
	for _, m := range Models() {
		st := perModel[m]
		switch {
		case fetchOK && m == ModelCorrect:
			// A correct server never replaces a staple its clients
			// accept with one they currently would not (e.g. a
			// future-thisUpdate response): it keeps the old one and
			// switches once the new response is both usable and
			// longer-lived.
			if !st.usableAt(o.At) || (freshUsable && betterUntil(fresh.validUntil, st.validUntil)) {
				*st = fresh
			}
		case fetchOK:
			*st = fresh
		default:
			switch m {
			case ModelNoCache, ModelApache:
				// No cache at all, or drop-on-error: the old
				// response is gone the moment a refresh fails.
				st.hasResponse = false
			case ModelCorrect:
				// Retained until expiry.
			}
		}

		serves := false
		switch m {
		case ModelNoCache:
			serves = freshUsable
		default:
			serves = st.usableAt(o.At)
		}
		if serves {
			h.ok[m]++
		}
	}
}

// betterUntil reports whether a replaces b as the longer-lived expiry
// (zero = never expires = best).
func betterUntil(a, b time.Time) bool {
	if a.IsZero() {
		return true
	}
	if b.IsZero() {
		return false
	}
	return a.After(b)
}

// Result is one model's outcome.
type Result struct {
	Model ServerModel
	// BrokenFraction is the share of handshakes a hard-failing client
	// would reject under this server model.
	BrokenFraction float64
	// Handshakes is the replayed connection count.
	Handshakes int
}

// Results returns per-model breakage, in Models() order.
func (h *HardFail) Results() []Result {
	out := make([]Result, 0, len(h.ok))
	for _, m := range Models() {
		r := Result{Model: m, Handshakes: h.total}
		if h.total > 0 {
			r.BrokenFraction = 1 - float64(h.ok[m])/float64(h.total)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}
