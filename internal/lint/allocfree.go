package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
)

// The allocfree analyzer enforces per-request zero-allocation contracts
// on the serving hot paths. A function annotated
//
//	//lint:allocfree
//
// in its doc comment must not allocate on any execution through its
// body. The check is dataflow-aware in two layers:
//
//   - The compiler's escape analysis (`go build -gcflags=-m`, parsed by
//     EscapeFacts) is ground truth for everything it can see: composite
//     literals, conversions, closures, and variables moved to the heap
//     inside the function's lexical extent are reported iff the compiler
//     says they escape. A `string(b)` map probe the compiler elides is
//     free; the same conversion stored into the map is one allocation
//     per call — the facts distinguish them, so the AST layer never has
//     to guess.
//
//   - AST dataflow covers what escape analysis cannot: allocations that
//     happen *inside* callees (a call returning a freshly built string —
//     the EscapedPath regression shape), string concatenation (which can
//     allocate beyond the compiler's 32-byte stack buffer even when the
//     result does not escape), appends with no capacity evidence (growth
//     is not an escape and prints no verdict), fmt calls (format state
//     and variadic boxing), and go statements (a new goroutine stack).
//
// A generic function's body is compiled only inside the packages that
// instantiate it, so its verdicts are read from the compiler output of
// the in-scope packages that import its package, at its own lines. A
// generic contract no in-scope package instantiates gets the AST layer
// only.
//
// Calls to functions that themselves carry //lint:allocfree are trusted:
// the contract composes, and each annotated callee is checked at its own
// definition. That holds across packages: a callee declared in another
// package the loader parsed is trusted when its own declaration (found by
// object identity, never by name) carries the directive, and that
// package's run checks it. Everything else is suppressed site-by-site
// with a reasoned //lint:allow allocfree comment, so every tolerated
// allocation on a hot path carries its justification in the tree.
var AllocFreeAnalyzer = &Analyzer{
	Name: "allocfree",
	Doc: "functions annotated //lint:allocfree must not allocate: compiler escape " +
		"facts confirm or clear in-function sites, and AST dataflow flags the " +
		"allocation sources the compiler cannot see (string-returning callees, " +
		"concatenation, capacity-less append, fmt, go statements)",
	Run: runAllocFree,
}

const allocFreeDirective = "//lint:allocfree"

func runAllocFree(pass *Pass) error {
	var targets []*ast.FuncDecl
	annotated := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !hasDirective(fn.Doc, allocFreeDirective) {
				continue
			}
			targets = append(targets, fn)
			if obj := pass.Info.Defs[fn.Name]; obj != nil {
				annotated[obj] = true
			}
		}
	}
	if len(targets) == 0 {
		return nil
	}
	// The contract cannot be checked without the compiler's verdicts; a
	// package that fails to build standalone fails the lint run loudly
	// rather than silently passing its annotated functions.
	facts, err := pass.EscapeFacts()
	if err != nil {
		return err
	}
	var imported []*EscapeFacts
	for _, fn := range targets {
		fnFacts := facts
		if isGeneric(pass.Info, fn) {
			if imported == nil {
				if imported, err = pass.ImporterEscapeFacts(); err != nil {
					return err
				}
			}
			if fnFacts, err = instantiatedFacts(pass, fn, imported); err != nil {
				return err
			}
		}
		checkAllocFree(pass, fn, fnFacts, annotated)
	}
	return nil
}

// isGeneric reports whether fn has type parameters of its own or through
// its receiver.
func isGeneric(info *types.Info, fn *ast.FuncDecl) bool {
	obj, ok := info.Defs[fn.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	return sig.TypeParams().Len() > 0 || sig.RecvTypeParams().Len() > 0
}

// instantiatedFacts gathers the verdicts the importers' compiles report
// inside the generic function fn. Its body is compiled once per
// instantiation shape and importer, so a verdict repeated at one column
// is kept once.
func instantiatedFacts(pass *Pass, fn *ast.FuncDecl, imported []*EscapeFacts) (*EscapeFacts, error) {
	start := pass.Fset.Position(fn.Pos())
	end := pass.Fset.Position(fn.Body.End())
	file, err := filepath.Abs(start.Filename)
	if err != nil {
		return nil, err
	}
	merged := &EscapeFacts{byLine: make(map[string][]EscapeVerdict)}
	for line := start.Line; line <= end.Line; line++ {
		key := lineFactKey(filepath.Base(file), line)
		for _, f := range imported {
			for _, v := range f.In(file, line) {
				if !slices.ContainsFunc(merged.byLine[key], func(w EscapeVerdict) bool {
					return w.Col == v.Col && w.Escapes == v.Escapes
				}) {
					merged.byLine[key] = append(merged.byLine[key], v)
				}
			}
		}
	}
	return merged, nil
}

// checkAllocFree applies both layers to one annotated function.
func checkAllocFree(pass *Pass, fn *ast.FuncDecl, facts *EscapeFacts, annotated map[types.Object]bool) {
	start := pass.Fset.Position(fn.Pos())
	end := pass.Fset.Position(fn.Body.End())

	// Layer 1: every escape verdict inside the function's lexical extent
	// is an allocation on the contract path. The diagnostic quotes the
	// compiler's own text, which names the allocation source.
	for line := start.Line; line <= end.Line; line++ {
		for _, v := range facts.At(start.Filename, line) {
			if !v.Escapes {
				continue
			}
			pass.ReportPosf(token.Position{Filename: start.Filename, Line: line, Column: v.Col},
				"%s inside //lint:allocfree %s", v.Text, fn.Name.Name)
		}
	}

	// Layer 2: AST dataflow for the compiler's blind spots.
	capVars := capacityMadeVars(pass.Info, fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine stack inside //lint:allocfree %s", fn.Name.Name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				checkConcat(pass, fn, n, pass.Info.Types[n], facts)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 {
				checkConcat(pass, fn, n, pass.Info.Types[n.Lhs[0]], facts)
			}
		case *ast.CallExpr:
			checkAllocCall(pass, fn, n, annotated, capVars)
		}
		return true
	})
}

// checkConcat reports non-constant string concatenation. Concatenation
// is never cleared by a "does not escape" verdict: the runtime's stack
// buffer for non-escaping concats is 32 bytes, so larger results
// allocate regardless. When the compiler reports the concat escaping,
// layer 1 already carries the finding and this one is withheld.
func checkConcat(pass *Pass, fn *ast.FuncDecl, site ast.Node, tv types.TypeAndValue, facts *EscapeFacts) {
	if !isStringType(tv.Type) || tv.Value != nil {
		return
	}
	pos := pass.Fset.Position(site.Pos())
	for _, v := range facts.At(pos.Filename, pos.Line) {
		if v.Escapes {
			return // layer 1 reported the compiler's verdict for this line
		}
	}
	pass.Reportf(site.Pos(), "string concatenation allocates inside //lint:allocfree %s; append into a pooled buffer instead", fn.Name.Name)
}

// checkAllocCall applies the call-site rules: fmt is always a finding,
// append needs capacity evidence, and a call returning a string is
// trusted only when the callee carries its own //lint:allocfree
// contract — building a fresh string is exactly the allocation escape
// analysis cannot see from the caller (the EscapedPath regression).
func checkAllocCall(pass *Pass, fn *ast.FuncDecl, call *ast.CallExpr, annotated map[types.Object]bool, capVars map[*types.Var]bool) {
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion: the compiler's escape verdict decides (layer 1)
	}
	if b := builtinName(pass.Info, call.Fun); b != "" {
		if b == "append" && !appendCapacityEvidence(pass.Info, call, capVars) {
			pass.Reportf(call.Pos(),
				"append without capacity evidence may grow its backing array inside //lint:allocfree %s; reslice a pooled buffer (buf[:0]) or make with explicit capacity",
				fn.Name.Name)
		}
		return // make/new/len/...: escaping results are layer 1 findings
	}
	callee := calleeOf(pass.Info, call)
	if callee == nil {
		return // dynamic call; the closure's own allocation is fact-checked
	}
	if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s allocates (format state and variadic boxing) inside //lint:allocfree %s; preformat off the hot path",
			callee.Name(), fn.Name.Name)
		return
	}
	if annotated[callee] {
		return // the callee's own //lint:allocfree contract covers it
	}
	if resultHasString(callee) {
		if callee.Pkg() != pass.Pkg {
			if decl := pass.funcDecl(callee); decl != nil && hasDirective(decl.Doc, allocFreeDirective) {
				return // annotated in its own package, whose run checks it
			}
		}
		pass.Reportf(call.Pos(), "call to %s returns a string, which the callee may allocate, inside //lint:allocfree %s; annotate the callee //lint:allocfree or suppress with a reason",
			callee.FullName(), fn.Name.Name)
	}
}

// resultHasString reports whether any of fn's results is a string (a
// type whose underlying type is string).
func resultHasString(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isStringType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

// capacityMadeVars collects the variables in body bound to a make with
// an explicit capacity — append targets with growth headroom the author
// sized deliberately.
func capacityMadeVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	vars := make(map[*types.Var]bool)
	record := func(id *ast.Ident) {
		if v, ok := info.Defs[id].(*types.Var); ok {
			vars[v] = true
		} else if v, ok := info.Uses[id].(*types.Var); ok {
			vars[v] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && isCapMake(info, rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok {
						record(id)
					}
				}
			}
		case *ast.ValueSpec:
			for i, rhs := range n.Values {
				if i < len(n.Names) && isCapMake(info, rhs) {
					record(n.Names[i])
				}
			}
		}
		return true
	})
	return vars
}

// isCapMake reports whether expr is make(T, len, cap) — a slice with an
// explicit capacity argument.
func isCapMake(info *types.Info, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	return builtinName(info, call.Fun) == "make" && len(call.Args) >= 3
}

// appendCapacityEvidence reports whether an append call's destination
// shows deliberate capacity management: a reslice (the buf[:0] pooled
// reuse idiom), a variable made with explicit capacity, or an inline
// capacity-sized make. A bare variable or field destination shows none
// — the growth is unbounded by anything visible at the site.
func appendCapacityEvidence(info *types.Info, call *ast.CallExpr, capVars map[*types.Var]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	switch base := ast.Unparen(call.Args[0]).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		v, _ := info.Uses[base].(*types.Var)
		return v != nil && capVars[v]
	case *ast.CallExpr:
		return isCapMake(info, base)
	}
	return false
}
