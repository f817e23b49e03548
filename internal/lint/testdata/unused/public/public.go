// Package public lies outside internal/: other modules may import it, so
// an export with no user in this module is no finding.
package public

func Exported() {}
