package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Config scopes the suite at package granularity. Each analyzer has a
// baked-in default scope (see DefaultConfig); a JSON config file can
// disable an analyzer or override its package lists, so a future package
// can opt in or out without touching the analyzers themselves.
//
// Patterns are import-path patterns in the go tool's style: `...`
// matches any (possibly empty) sequence of characters, and a pattern
// ending in `/...` also matches the path without the trailing slash
// ("a/..." matches both "a" and "a/b").
type Config struct {
	Analyzers map[string]AnalyzerConfig `json:"analyzers"`
}

// AnalyzerConfig is one analyzer's package scope.
type AnalyzerConfig struct {
	// Disabled turns the analyzer off entirely.
	Disabled bool `json:"disabled,omitempty"`
	// Only limits the analyzer to packages matching any pattern. Empty
	// means every loaded package.
	Only []string `json:"only,omitempty"`
	// Skip exempts packages matching any pattern (applied after Only).
	Skip []string `json:"skip,omitempty"`
}

// DefaultConfig returns the scopes the repository is linted with:
//
//   - wallclock guards every internal/ package except the three that are
//     wall-clock by contract: internal/clock (the abstraction itself),
//     internal/profiling (pprof plumbing), and internal/memwatch (a heap
//     sampler whose whole job is real-time ticks).
//   - globalrand guards every internal/ package; the seeded-world
//     construction paths (world, census, vulnwindow) are where violations
//     would corrupt reproducibility, but a global stream is never right.
//   - maporder and locksafe apply everywhere, including cmd/.
//   - ctxfirst guards the exported internal/ APIs.
//   - errcheck-hot guards the responder/scanner/ocsp hot paths, where a
//     discarded error silently corrupts a measurement, the durable
//     store, where a discarded error silently loses one, the serving
//     tier (ocspserver), where one drops a live response, the streamed
//     world-construction paths (world, census), where one silently
//     truncates the certificate corpus, and the load generator
//     (loadgen), where one silently undercounts failures and inflates
//     the measured capacity.
//   - allocfree guards the internal/ tree: the //lint:allocfree
//     contracts live on the serving hot paths (ocspserver fast path,
//     responder cached path, store scan decode), and escape analysis is
//     only consulted in packages that declare a contract.
//   - atomicsafe, lockorder, and leakcheck are module-wide (everywhere,
//     including cmd/): a plain access races an atomic one wherever it
//     lives, a lock cycle spans packages by nature, and leaked
//     goroutines in a main() are leaks all the same.
//   - unused is module-wide too: a user anywhere, cmd/ and examples/
//     included, keeps an export alive; it reports only under internal/.
func DefaultConfig() *Config {
	return &Config{Analyzers: map[string]AnalyzerConfig{
		"wallclock": {
			Only: []string{".../internal/..."},
			Skip: []string{".../internal/clock", ".../internal/profiling", ".../internal/memwatch", ".../internal/lint/..."},
		},
		"globalrand": {
			Only: []string{".../internal/..."},
		},
		"ctxfirst": {
			Only: []string{".../internal/..."},
		},
		"errcheck-hot": {
			Only: []string{
				".../internal/responder", ".../internal/scanner",
				".../internal/ocsp", ".../internal/crl",
				".../internal/store", ".../internal/ocspserver",
				".../internal/world", ".../internal/census",
				".../internal/loadgen", ".../internal/expectstaple",
			},
		},
		"allocfree": {
			Only: []string{".../internal/..."},
		},
	}}
}

// LoadConfig reads a JSON config file. Unknown analyzer names are
// rejected so a typo cannot silently widen a scope.
func LoadConfig(path string, known []*Analyzer) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	cfg := new(Config)
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("lint: parsing %s: %v", path, err)
	}
	names := make(map[string]bool, len(known))
	for _, a := range known {
		names[a.Name] = true
	}
	for name := range cfg.Analyzers {
		if !names[name] {
			return nil, fmt.Errorf("lint: %s: unknown analyzer %q", path, name)
		}
	}
	return cfg, nil
}

// includes reports whether the analyzer named name runs over pkgPath.
func (c *Config) includes(name, pkgPath string) bool {
	if c == nil {
		return true
	}
	ac, ok := c.Analyzers[name]
	if !ok {
		return true
	}
	if ac.Disabled {
		return false
	}
	if len(ac.Only) > 0 && !matchAny(ac.Only, pkgPath) {
		return false
	}
	return !matchAny(ac.Skip, pkgPath)
}

func matchAny(patterns []string, path string) bool {
	for _, p := range patterns {
		if matchPattern(p, path) {
			return true
		}
	}
	return false
}

// matchPattern implements the go tool's `...` wildcard: it matches any
// substring, and "a/..." additionally matches "a" itself.
func matchPattern(pattern, path string) bool {
	if strings.HasSuffix(pattern, "/...") && matchPattern(strings.TrimSuffix(pattern, "/..."), path) {
		return true
	}
	return matchSegs(pattern, path)
}

func matchSegs(pattern, path string) bool {
	i := strings.Index(pattern, "...")
	if i < 0 {
		return pattern == path
	}
	prefix, rest := pattern[:i], pattern[i+3:]
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	remainder := path[len(prefix):]
	if rest == "" {
		return true
	}
	// Try every split point for the wildcard.
	for j := 0; j <= len(remainder); j++ {
		if matchSegs(rest, remainder[j:]) {
			return true
		}
	}
	return false
}
