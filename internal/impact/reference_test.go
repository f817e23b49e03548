package impact

import (
	"time"

	"github.com/netmeasure/muststaple/internal/scanner"
)

// The reference replay below is the hard-fail analysis as it stood before
// the replay moved onto webserver.Policy: three server models with their
// own cache rules, one refresh per observation. differential_test.go
// checks the policy replay's no-cache, Apache and correct rows against it.

// refModel selects one of the reference server models.
type refModel int

const (
	// refNoCache staples only when the live fetch at handshake time
	// succeeds.
	refNoCache refModel = iota
	// refApache keeps fetched responses but drops them whenever a
	// refresh fails, and staples expired bytes.
	refApache
	// refCorrect retains the last valid response until its nextUpdate
	// while retrying.
	refCorrect
	refModels
)

// refCache is one (responder, vantage, model) stapling cache.
type refCache struct {
	hasResponse bool
	validFrom   time.Time // thisUpdate: a hard-fail client rejects earlier
	validUntil  time.Time // zero means blank nextUpdate: never expires
}

// usableAt applies the client's validation window.
func (c *refCache) usableAt(t time.Time) bool {
	if !c.hasResponse {
		return false
	}
	if t.Before(c.validFrom) {
		return false
	}
	return c.validUntil.IsZero() || !t.After(c.validUntil)
}

// refHardFail replays observations through the reference models.
type refHardFail struct {
	states map[pair]*[refModels]refCache
	ok     [refModels]int
	total  int
}

func newRefHardFail() *refHardFail {
	return &refHardFail{states: make(map[pair]*[refModels]refCache)}
}

// Add treats each observation as both the server's refresh attempt and
// one client handshake at that instant.
func (h *refHardFail) Add(o scanner.Observation) {
	key := pair{o.Responder, o.Vantage}
	perModel := h.states[key]
	if perModel == nil {
		perModel = new([refModels]refCache)
		h.states[key] = perModel
	}

	fetchOK := o.Class.Usable()
	fresh := refCache{hasResponse: fetchOK, validFrom: o.ThisUpdate}
	if o.HasNextUpdate {
		fresh.validUntil = o.NextUpdate
	}
	freshUsable := fetchOK && fresh.usableAt(o.At)

	h.total++
	for m := refNoCache; m < refModels; m++ {
		st := &perModel[m]
		switch {
		case fetchOK && m == refCorrect:
			// Never replace an accepted staple with one clients
			// reject now, or with one that expires no later.
			if !st.usableAt(o.At) || (freshUsable && refBetterUntil(fresh.validUntil, st.validUntil)) {
				*st = fresh
			}
		case fetchOK:
			*st = fresh
		case m != refCorrect:
			st.hasResponse = false
		}

		serves := st.usableAt(o.At)
		if m == refNoCache {
			serves = freshUsable
		}
		if serves {
			h.ok[m]++
		}
	}
}

// refBetterUntil reports whether a replaces b as the longer-lived expiry
// (zero = never expires = best).
func refBetterUntil(a, b time.Time) bool {
	if a.IsZero() {
		return true
	}
	if b.IsZero() {
		return false
	}
	return a.After(b)
}
