package lint

import "testing"

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, path string
		want          bool
	}{
		{".../internal/...", "github.com/netmeasure/muststaple/internal/world", true},
		{".../internal/...", "github.com/netmeasure/muststaple/cmd/repro", false},
		{".../internal/clock", "github.com/netmeasure/muststaple/internal/clock", true},
		{".../internal/clock", "github.com/netmeasure/muststaple/internal/clockwork", false},
		{".../internal/lint/...", "github.com/netmeasure/muststaple/internal/lint", true},
		{".../internal/lint/...", "github.com/netmeasure/muststaple/internal/lint/linttest", true},
		{"example.com/a", "example.com/a", true},
		{"example.com/a", "example.com/a/b", false},
	}
	for _, c := range cases {
		if got := matchPattern(c.pattern, c.path); got != c.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", c.pattern, c.path, got, c.want)
		}
	}
}

func TestDefaultConfigScopes(t *testing.T) {
	cfg := DefaultConfig()
	const mod = "github.com/netmeasure/muststaple"
	cases := []struct {
		analyzer, pkg string
		want          bool
	}{
		{"wallclock", mod + "/internal/world", true},
		{"wallclock", mod + "/internal/clock", false},
		{"wallclock", mod + "/internal/profiling", false},
		{"wallclock", mod + "/internal/memwatch", false},
		{"wallclock", mod + "/cmd/repro", false},
		{"globalrand", mod + "/internal/census", true},
		{"globalrand", mod + "/cmd/ocspdump", false},
		{"maporder", mod + "/cmd/repro", true},
		{"locksafe", mod + "/internal/scanner", true},
		{"ctxfirst", mod + "/internal/core", true},
		{"errcheck-hot", mod + "/internal/responder", true},
		{"errcheck-hot", mod + "/internal/ocspserver", true},
		{"errcheck-hot", mod + "/internal/world", true},
		{"errcheck-hot", mod + "/internal/census", true},
		{"errcheck-hot", mod + "/internal/loadgen", true},
		{"errcheck-hot", mod + "/internal/expectstaple", true},
		{"errcheck-hot", mod + "/internal/report", false},
	}
	for _, c := range cases {
		if got := cfg.includes(c.analyzer, c.pkg); got != c.want {
			t.Errorf("includes(%q, %q) = %v, want %v", c.analyzer, c.pkg, got, c.want)
		}
	}
}
