// Package linttest is the fixture harness for the repolint analyzers —
// the stdlib stand-in for golang.org/x/tools/go/analysis/analysistest.
// A fixture is a directory holding one small package; expectations are
// `// want "regexp"` comments on the lines where findings must appear.
// The harness type-checks the fixture against the real standard library,
// runs one analyzer through the same suppression filter as the
// production runner, and diffs findings against expectations, so the
// //lint:allow machinery is exercised exactly as `repolint` applies it.
package linttest

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/netmeasure/muststaple/internal/lint"
)

// sharedLoader memoizes standard-library type-checking across every
// fixture in the test binary; loading "std" once is far cheaper than
// re-checking fmt/time/sync per fixture.
var (
	loaderOnce sync.Once
	loader     *lint.Loader
	loaderErr  error
)

func sharedLoader() (*lint.Loader, error) {
	loaderOnce.Do(func() {
		loader = lint.NewLoader("")
	})
	return loader, loaderErr
}

var wantRE = regexp.MustCompile(`// want (".*")\s*$`)

// expectation is one `// want` comment: a line that must carry a finding
// matching each regexp.
type expectation struct {
	file string
	line int
	res  []*regexp.Regexp
}

// Run type-checks the fixture package in dir under the given import path
// and applies the analyzer, failing t on any mismatch between findings
// and `// want` expectations. The import path matters only to analyzers
// that inspect it; fixtures conventionally use paths under example.com/
// shaped like the real tree (e.g. example.com/internal/world).
// importerDirs name sibling fixture packages that import the fixture by
// its module path; they are only compiled, for the escape facts of the
// generic functions they instantiate.
//
//lint:allow unused the fixture harness: every analyzer's tests call it, and only tests may
func Run(t *testing.T, a *lint.Analyzer, dir, importPath string, importerDirs ...string) {
	t.Helper()
	ld, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}

	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(names)

	var files []*ast.File
	imports := map[string]bool{}
	var expects []expectation
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(ld.Fset, name, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing %s: %v", name, err)
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			imports[strings.Trim(imp.Path.Value, `"`)] = true
		}
		expects = append(expects, parseWants(t, ld, f, name)...)
	}

	// Register the fixture's (standard-library) imports with the loader.
	if len(imports) > 0 {
		var paths []string
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if _, err := ld.Load(paths...); err != nil {
			t.Fatalf("loading fixture imports: %v", err)
		}
	}

	pkg, info, err := ld.CheckFiles(importPath, files)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", dir, err)
	}
	loaded := &lint.LoadedPackage{
		ImportPath: importPath,
		Dir:        dir,
		Files:      files,
		Pkg:        pkg,
		Info:       info,
	}
	var importers []*lint.LoadedPackage
	for _, d := range importerDirs {
		importers = append(importers, &lint.LoadedPackage{Dir: d})
	}
	diags, err := lint.Analyze(ld, loaded, importers, []*lint.Analyzer{a}, nil)
	if err != nil {
		t.Fatal(err)
	}
	diff(t, expects, diags)
}

// parseWants extracts the `// want "re"` expectations of one file.
func parseWants(t *testing.T, ld *lint.Loader, f *ast.File, filename string) []expectation {
	t.Helper()
	var out []expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := wantRE.FindStringSubmatch(c.Text)
			if m == nil {
				if strings.Contains(c.Text, "// want") {
					t.Fatalf(`%s: malformed want comment %q (use // want "regexp")`, filename, c.Text)
				}
				continue
			}
			pos := ld.Fset.Position(c.Pos())
			exp := expectation{file: filename, line: pos.Line}
			for _, quoted := range splitQuoted(m[1]) {
				re, err := regexp.Compile(quoted)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, pos.Line, quoted, err)
				}
				exp.res = append(exp.res, re)
			}
			out = append(out, exp)
		}
	}
	return out
}

// splitQuoted splits `"a" "b"` into its quoted parts.
func splitQuoted(s string) []string {
	var out []string
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return out
		}
		j := strings.IndexByte(s[i+1:], '"')
		if j < 0 {
			return out
		}
		out = append(out, s[i+1:i+1+j])
		s = s[i+1+j+1:]
	}
}

// diff matches findings against expectations one-to-one per line.
func diff(t *testing.T, expects []expectation, diags []lint.Diagnostic) {
	t.Helper()
	unmatched := make([]bool, len(diags))
	for _, exp := range expects {
		for _, re := range exp.res {
			found := false
			for i, d := range diags {
				if unmatched[i] || d.Pos.Line != exp.line || filepath.Base(d.Pos.Filename) != filepath.Base(exp.file) {
					continue
				}
				if re.MatchString(d.Message) {
					unmatched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: expected finding matching %q, got none", exp.file, exp.line, re)
			}
		}
	}
	for i, d := range diags {
		if !unmatched[i] {
			t.Errorf("unexpected finding: %s", d)
		}
	}
}
