// Package suppressed keeps exported identifiers that only tests use with
// reasoned exemptions, and pins the rule that a bare exemption is itself
// a finding.
package suppressed

// Reference is the slow decoder the tests check the fast one against.
//
//lint:allow unused the reference implementation the fuzz target compares the fast decoder against
func Reference(b []byte) []byte { return b }

const (
	// Target is a published figure the tests check a model against.
	//lint:allow unused the paper figure the model tests check against
	Target = 29_709
)

// Bare carries a suppression with no reason: converted, not silenced.
//
//lint:allow unused
func Bare() {} // want "suppressed without a reason"
