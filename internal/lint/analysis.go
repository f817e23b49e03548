// Package lint is a stdlib-only static-analysis suite that mechanically
// enforces the repository's determinism and concurrency invariants: no
// wall-clock reads in simulated-time code, no global math/rand streams in
// world construction, no map-iteration-ordered output, no mutexes held
// across channel operations, context.Context first, and no silently
// discarded errors on responder/scanner hot paths.
//
// The package mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer / Pass / Diagnostic) so analyzers could migrate to the real
// framework if the dependency ever becomes available, but it is built
// entirely on go/ast, go/types, and `go list`, because this repository
// carries no third-party dependencies.
//
// See DESIGN.md §10 for the invariant each analyzer guards and for the
// `//lint:allow <analyzer> <reason>` suppression syntax.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check. Per-package analyzers set Run, which
// inspects a single type-checked package via the Pass and reports
// findings with Pass.Reportf. Dataflow analyzers whose invariant spans
// packages (a field must be accessed atomically *everywhere*, a lock
// order must be acyclic *module-wide*) set RunModule instead, which
// receives every in-scope package at once.
type Analyzer struct {
	// Name identifies the analyzer in output and in //lint:allow comments.
	Name string
	// Doc is a one-paragraph description: the invariant guarded and why.
	Doc string
	// Run performs the check on one package. Nil for module analyzers.
	Run func(*Pass) error
	// RunModule performs the check across every in-scope package in one
	// call. Nil for per-package analyzers. Exactly one of Run/RunModule
	// must be set.
	RunModule func(*ModulePass) error
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test compilation units, parsed with
	// comments.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Dir is the package's source directory (escape facts are produced by
	// compiling it).
	Dir string

	report  func(Diagnostic)
	escapes func() (*EscapeFacts, error)
	// importerEscapes yields the escape facts of the in-scope packages
	// that import this one.
	importerEscapes func() ([]*EscapeFacts, error)
	// funcDecl finds the declaration of a function of a package the
	// loader parsed (Loader.FuncDecl).
	funcDecl func(*types.Func) *ast.FuncDecl
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPosf records a finding at an already-resolved file position —
// the shape escape-analysis facts arrive in, which have no token.Pos in
// the pass's FileSet.
func (p *Pass) ReportPosf(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// EscapeFacts returns the compiler's escape-analysis verdicts for the
// package under analysis (from `go build -gcflags=-m`), memoized per
// package directory. Analyzers that consult it must tolerate an error:
// a package that does not compile standalone simply has no facts.
func (p *Pass) EscapeFacts() (*EscapeFacts, error) {
	if p.escapes == nil {
		return nil, fmt.Errorf("lint: no escape-analysis source configured for %s", p.Pkg.Path())
	}
	return p.escapes()
}

// ImporterEscapeFacts returns the escape-analysis verdicts of each
// in-scope package that imports the package under analysis. A generic
// function's body is compiled only inside the packages that instantiate
// it, so its verdicts appear only in their compiler output.
func (p *Pass) ImporterEscapeFacts() ([]*EscapeFacts, error) {
	return p.importerEscapes()
}

// ModulePass carries every in-scope package to a module-wide analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are the packages the analyzer's config admits, in deterministic
	// import-path order.
	Pkgs []*LoadedPackage

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportPosf records a finding at an already-resolved position (used
// when the position was captured in an earlier phase of the module walk).
func (p *ModulePass) ReportPosf(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the go-vet-style "file:line:col: message [analyzer]" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// funcIn reports whether the expression (an identifier or selector) uses a
// package-level function of pkgPath whose name is in names. It resolves
// through the type information, so aliased imports and method values do
// not confuse it.
func funcIn(info *types.Info, expr ast.Expr, pkgPath string, names ...string) (string, bool) {
	var id *ast.Ident
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return "", false
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return "", false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", false
	}
	for _, n := range names {
		if fn.Name() == n {
			return fn.Name(), true
		}
	}
	return "", false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, types.Universe.Lookup("error").Type())
}
