package lint_test

import (
	"testing"

	"github.com/netmeasure/muststaple/internal/lint"
	"github.com/netmeasure/muststaple/internal/lint/linttest"
)

func TestUnusedFindings(t *testing.T) {
	linttest.Run(t, lint.UnusedAnalyzer, "testdata/unused/bad", "example.com/repo/internal/bad")
}

func TestUnusedSuppression(t *testing.T) {
	linttest.Run(t, lint.UnusedAnalyzer, "testdata/unused/suppressed", "example.com/repo/internal/suppressed")
}

func TestUnusedClean(t *testing.T) {
	linttest.Run(t, lint.UnusedAnalyzer, "testdata/unused/clean", "example.com/repo/internal/clean")
}

// TestUnusedOnlyUnderInternal: a package outside internal/ can be
// imported from other modules, so its exports are not checked.
func TestUnusedOnlyUnderInternal(t *testing.T) {
	linttest.Run(t, lint.UnusedAnalyzer, "testdata/unused/public", "example.com/repo/pkg/public")
}
