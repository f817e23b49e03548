package lint

import (
	"go/ast"
)

// GlobalRandAnalyzer forbids the process-global math/rand stream (and the
// auto-seeded math/rand/v2 equivalents) in seeded construction paths.
// World, census, and vulnwindow construction derive every random stream
// from (Config.Seed, phase, index) via the splitmix64 child-seed scheme;
// one rand.Intn on the shared global source makes the generated corpus
// depend on goroutine scheduling and on whatever else consumed the
// stream, destroying byte-reproducibility.
//
// Also flagged: rand.New(rand.NewSource(...)) seeded from the wall clock,
// the classic "seeded" generator that is still nondeterministic.
var GlobalRandAnalyzer = &Analyzer{
	Name: "globalrand",
	Doc:  "forbid the global math/rand stream and wall-clock-seeded generators in seeded construction paths; derive child seeds from Config.Seed",
	Run:  runGlobalRand,
}

// globalRandFns are the top-level math/rand (v1 and v2) functions backed
// by the shared global source. New/NewSource/NewZipf are excluded: a
// locally constructed, explicitly seeded generator is exactly what the
// child-seed scheme produces.
var globalRandFns = []string{
	"Int", "Intn", "Int31", "Int31n", "Int63", "Int63n",
	"Uint32", "Uint64", "Float32", "Float64",
	"ExpFloat64", "NormFloat64", "Perm", "Shuffle", "Seed", "Read",
	// math/rand/v2 spellings.
	"IntN", "Int32", "Int32N", "Int64", "Int64N", "UintN", "Uint", "N",
	"Uint32N", "Uint64N",
}

func runGlobalRand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, pkg := range []string{"math/rand", "math/rand/v2"} {
				if name, ok := funcIn(pass.Info, sel, pkg, globalRandFns...); ok {
					pass.Reportf(sel.Pos(), "rand.%s draws from the process-global stream; derive a child generator from the config seed (fold it through hashx.Mix) instead", name)
					return true
				}
			}
			return true
		})
		// Second walk: wall-clock-seeded sources.
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, ok := funcIn(pass.Info, call.Fun, "math/rand", "NewSource"); !ok {
				return true
			}
			for _, arg := range call.Args {
				if usesWallClock(pass, arg) {
					pass.Reportf(call.Pos(), "rand.NewSource seeded from the wall clock is nondeterministic; seed from the config seed instead")
					return true
				}
			}
			return true
		})
	}
	return nil
}

// usesWallClock reports whether the expression contains a time.Now call.
func usesWallClock(pass *Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if _, ok := funcIn(pass.Info, sel, "time", "Now"); ok {
				found = true
			}
		}
		return !found
	})
	return found
}
