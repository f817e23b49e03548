package lint

import (
	"go/types"
	"strings"
)

// UnusedAnalyzer reports exported package-level identifiers (funcs,
// types, vars and consts) declared under internal/ that no non-test file
// of the analyzed packages uses, their own package included. An internal
// package can only be imported from inside this module, so an exported
// identifier nothing uses is code no command, figure or gate reaches:
// it is kept alive only by its own tests. Delete it, or keep it with a
// reasoned //lint:allow unused (a test oracle, an export kept for a
// planned caller, a user in the separate bench/ module).
//
// The verdict is meaningful only over the whole module (./..., which is
// how make lint, CI and TestRepoIsLintClean run it): over a subset of
// packages, a user outside the subset is not seen. Methods, struct
// fields and unexported identifiers are out of scope.
var UnusedAnalyzer = &Analyzer{
	Name: "unused",
	Doc: "an exported package-level identifier under internal/ must be used by a non-test file " +
		"of the module; meaningful only over ./...",
	RunModule: runUnused,
}

func runUnused(mp *ModulePass) error {
	used := make(map[types.Object]bool)
	for _, p := range mp.Pkgs {
		for _, obj := range p.Info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}
	for _, p := range mp.Pkgs {
		if !strings.Contains(p.ImportPath+"/", "/internal/") {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() || used[obj] {
				continue
			}
			var kind string
			switch obj.(type) {
			case *types.Func:
				kind = "func"
			case *types.TypeName:
				kind = "type"
			case *types.Var:
				kind = "var"
			case *types.Const:
				kind = "const"
			default:
				continue
			}
			mp.Reportf(obj.Pos(), "exported %s %s.%s is used by no non-test file; delete it or say why it stays",
				kind, p.Pkg.Name(), name)
		}
	}
	return nil
}
