package lint_test

import (
	"testing"

	"github.com/netmeasure/muststaple/internal/lint"
	"github.com/netmeasure/muststaple/internal/lint/linttest"
)

func TestAllocFreeFindings(t *testing.T) {
	linttest.Run(t, lint.AllocFreeAnalyzer, "testdata/allocfree/bad", "example.com/repo/internal/ocspserver")
}

func TestAllocFreeSuppression(t *testing.T) {
	linttest.Run(t, lint.AllocFreeAnalyzer, "testdata/allocfree/suppressed", "example.com/repo/internal/ocspserver")
}

func TestAllocFreeClean(t *testing.T) {
	linttest.Run(t, lint.AllocFreeAnalyzer, "testdata/allocfree/clean", "example.com/repo/internal/ocspserver")
}

// TestAllocFreeRegression is the seeded regression: serveGET's shape
// with the EscapedPath-per-request allocation reintroduced must fail
// with a diagnostic naming the callee.
func TestAllocFreeRegression(t *testing.T) {
	linttest.Run(t, lint.AllocFreeAnalyzer, "testdata/allocfree/regression", "example.com/repo/internal/ocspserver")
}

// TestAllocFreeGeneric: a generic contract is checked through the
// compiler output of a package that instantiates it; the escape planted in
// the annotated method is reported once, although two instantiations
// report it.
func TestAllocFreeGeneric(t *testing.T) {
	linttest.Run(t, lint.AllocFreeAnalyzer, "testdata/allocfree/generic/table", "example.com/repo/internal/memo",
		"testdata/allocfree/generic/user")
}

// TestAllocFreeImported: a string-returning callee in another package is
// trusted when its own declaration carries //lint:allocfree; a method of
// the same name on another type, without the directive, is still a
// finding.
func TestAllocFreeImported(t *testing.T) {
	linttest.Run(t, lint.AllocFreeAnalyzer, "testdata/allocfree/imported/user", "example.com/repo/internal/store")
}
