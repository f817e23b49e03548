package lint

import (
	"fmt"
	"sort"
	"time"
)

// RunOptions carries cross-cutting runner behavior that is not part of
// analyzer configuration.
type RunOptions struct {
	// Timings, when non-nil, accumulates per-analyzer wall time across
	// every package (the -timing flag of cmd/repolint). The whole-module
	// budget is ~3 s; per-analyzer attribution keeps regressions visible
	// as the suite grows.
	Timings map[string]time.Duration
}

// Run loads the packages matching patterns from dir and applies every
// analyzer enabled for each package, returning the surviving findings in
// deterministic (file, line, column, analyzer) order. Suppression
// comments are honoured per file; cfg == nil means DefaultConfig.
//
//lint:allow unused bench/'s TestLintClean calls it; bench/ is a module of its own, which this analyzer does not load
func Run(dir string, analyzers []*Analyzer, cfg *Config, patterns ...string) ([]Diagnostic, error) {
	return RunWithOptions(dir, analyzers, cfg, nil, patterns...)
}

// RunWithOptions is Run with runner options (per-analyzer timings).
func RunWithOptions(dir string, analyzers []*Analyzer, cfg *Config, opts *RunOptions, patterns ...string) ([]Diagnostic, error) {
	loader := NewLoader(dir)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, err
	}
	if cfg == nil {
		cfg = DefaultConfig()
	}
	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }

	importers := make(map[string][]*LoadedPackage)
	for _, q := range pkgs {
		for _, imp := range q.Pkg.Imports() {
			importers[imp.Path()] = append(importers[imp.Path()], q)
		}
	}
	// Per-package analyzers.
	for _, p := range pkgs {
		if err := runPackageAnalyzers(loader, p, importers[p.ImportPath], analyzers, cfg, report, opts); err != nil {
			return nil, err
		}
	}
	// Module-wide analyzers see every in-scope package at once.
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		var scoped []*LoadedPackage
		for _, p := range pkgs {
			if cfg.includes(a.Name, p.ImportPath) {
				scoped = append(scoped, p)
			}
		}
		if len(scoped) == 0 {
			continue
		}
		start := time.Now()
		mp := &ModulePass{Analyzer: a, Fset: loader.Fset, Pkgs: scoped, report: report}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("lint: %s over the module: %v", a.Name, err)
		}
		recordTiming(opts, a.Name, start)
	}

	// Suppression and the bare-directive sweep run over the merged
	// directive set: file paths are unique across packages, so one index
	// resolves every diagnostic regardless of which phase produced it.
	var allows allowSet
	for _, p := range pkgs {
		collectAllows(&allows, loader.Fset, p.Files)
	}
	kept := applyAllows(raw, &allows)
	kept = append(kept, sweepBareAllows(&allows)...)
	sortDiagnostics(kept)
	return kept, nil
}

// runPackageAnalyzers applies the per-package analyzers to p, reporting
// raw (unsuppressed) diagnostics. importers are the loaded packages that
// import p; each analyzer sees those its configuration admits.
func runPackageAnalyzers(loader *Loader, p *LoadedPackage, importers []*LoadedPackage, analyzers []*Analyzer, cfg *Config, report func(Diagnostic), opts *RunOptions) error {
	for _, a := range analyzers {
		if a.Run == nil || !cfg.includes(a.Name, p.ImportPath) {
			continue
		}
		start := time.Now()
		pass := &Pass{
			Analyzer: a,
			Fset:     loader.Fset,
			Files:    p.Files,
			Pkg:      p.Pkg,
			Info:     p.Info,
			Dir:      p.Dir,
			report:   report,
			escapes:  func() (*EscapeFacts, error) { return loader.EscapeFacts(p.Dir) },
			funcDecl: loader.FuncDecl,
			importerEscapes: func() ([]*EscapeFacts, error) {
				var out []*EscapeFacts
				for _, q := range importers {
					if !cfg.includes(a.Name, q.ImportPath) {
						continue
					}
					facts, err := loader.EscapeFacts(q.Dir)
					if err != nil {
						return nil, err
					}
					out = append(out, facts)
				}
				return out, nil
			},
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("lint: %s on %s: %v", a.Name, p.ImportPath, err)
		}
		recordTiming(opts, a.Name, start)
	}
	return nil
}

func recordTiming(opts *RunOptions, name string, start time.Time) {
	if opts != nil && opts.Timings != nil {
		opts.Timings[name] += time.Since(start)
	}
}

// Analyze applies the enabled analyzers to one loaded package and filters
// the findings through the package's //lint:allow directives. importers
// are the packages that import p; only their directories are read, to
// compile them for escape facts. Module-wide analyzers run over a module
// consisting of just this package. The returned order is the analyzers'
// reporting order; Run sorts across packages. It is exported for the
// linttest fixture harness.
func Analyze(loader *Loader, p *LoadedPackage, importers []*LoadedPackage, analyzers []*Analyzer, cfg *Config) ([]Diagnostic, error) {
	// A nil cfg enables every analyzer on every package (the fixture
	// harness's contract); Run, by contrast, defaults to DefaultConfig.
	var raw []Diagnostic
	report := func(d Diagnostic) { raw = append(raw, d) }
	if err := runPackageAnalyzers(loader, p, importers, analyzers, cfg, report, nil); err != nil {
		return nil, err
	}
	for _, a := range analyzers {
		if a.RunModule == nil || !cfg.includes(a.Name, p.ImportPath) {
			continue
		}
		mp := &ModulePass{Analyzer: a, Fset: loader.Fset, Pkgs: []*LoadedPackage{p}, report: report}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %v", a.Name, p.ImportPath, err)
		}
	}
	var allows allowSet
	collectAllows(&allows, loader.Fset, p.Files)
	kept := applyAllows(raw, &allows)
	return append(kept, sweepBareAllows(&allows)...), nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
