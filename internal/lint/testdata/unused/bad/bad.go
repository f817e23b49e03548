// Package bad declares one exported package-level identifier of each
// kind that no non-test file uses: each is a finding.
package bad

func Orphan() {} // want "exported func bad.Orphan is used by no non-test file"

type Shape struct{ Sides int } // want "exported type bad.Shape is used by no non-test file"

var Registry = map[string]int{} // want "exported var bad.Registry is used by no non-test file"

const (
	Limit = 4 // want "exported const bad.Limit is used by no non-test file"
	Floor = 1
)

// Used is reached from the package's own code, so it is no finding;
// neither is Floor, which it reads.
func Used() int { return Floor }

func init() { Used() }
