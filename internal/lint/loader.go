package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Loader type-checks Go packages from source using only the standard
// library: `go list -deps -json` enumerates the packages a pattern needs
// (with build constraints already applied), and go/parser + go/types do
// the rest. Dependencies — including the standard library — are
// type-checked lazily and memoized, so loading every package in this
// repository costs one pass over the shared dependency graph.
//
// The loader forces CGO_ENABLED=0 so that packages like net and
// crypto/x509 select their pure-Go files; nothing in this repository uses
// cgo, and type-checking cgo-generated code from source is not possible
// without the cgo tool.
type Loader struct {
	// Dir is the directory `go list` runs in; it must be inside the
	// module. Empty means the current directory.
	Dir string
	// Fset positions every file the loader touches.
	Fset *token.FileSet

	mu    sync.Mutex
	pkgs  map[string]*loadPkg // by resolved import path
	byDir map[string]*loadPkg // by source directory, for vendor ImportMaps

	escMu   sync.Mutex
	escapes map[string]*escapeResult // -gcflags=-m verdicts, by package dir
}

// loadPkg mirrors the subset of `go list -json` output the loader needs,
// plus the lazily produced type information.
type loadPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
	Error      *struct{ Err string }

	checked bool
	files   []*ast.File
	tpkg    *types.Package
	info    *types.Info
	err     error
}

// LoadedPackage is one pattern-matched, fully type-checked package ready
// for analysis.
type LoadedPackage struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// NewLoader returns a loader rooted at dir (empty = current directory).
func NewLoader(dir string) *Loader {
	return &Loader{
		Dir:   dir,
		Fset:  token.NewFileSet(),
		pkgs:  make(map[string]*loadPkg),
		byDir: make(map[string]*loadPkg),
	}
}

// Load lists the packages matching patterns, registers their full
// dependency graph, and type-checks the matched packages. Dependencies
// are type-checked on demand as imports resolve. Load may be called more
// than once; later calls reuse everything already checked.
func (l *Loader) Load(patterns ...string) ([]*LoadedPackage, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{
		"list", "-e", "-deps",
		"-json=ImportPath,Dir,Name,GoFiles,Standard,DepOnly,ImportMap,Error",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = l.Dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var targets []*loadPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	l.mu.Lock()
	for {
		p := new(loadPkg)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			l.mu.Unlock()
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if prev, ok := l.pkgs[p.ImportPath]; ok {
			p = prev
		} else {
			l.pkgs[p.ImportPath] = p
			if p.Dir != "" {
				l.byDir[filepath.Clean(p.Dir)] = p
			}
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	l.mu.Unlock()

	var loaded []*LoadedPackage
	for _, p := range targets {
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		if _, err := l.check(p); err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %v", p.ImportPath, err)
		}
		loaded = append(loaded, &LoadedPackage{
			ImportPath: p.ImportPath,
			Dir:        p.Dir,
			Files:      p.files,
			Pkg:        p.tpkg,
			Info:       p.info,
		})
	}
	sort.Slice(loaded, func(i, j int) bool { return loaded[i].ImportPath < loaded[j].ImportPath })
	return loaded, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom. srcDir disambiguates vendored
// import paths (the standard library vendors golang.org/x packages) via
// the importing package's ImportMap.
func (l *Loader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l.mu.Lock()
	if srcDir != "" {
		if from, ok := l.byDir[filepath.Clean(srcDir)]; ok {
			if mapped, ok := from.ImportMap[path]; ok {
				path = mapped
			}
		}
	}
	p, ok := l.pkgs[path]
	l.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("lint: import %q not in the loaded dependency graph", path)
	}
	return l.check(p)
}

// check parses and type-checks p once, memoizing the result. Type errors
// in dependency packages are tolerated (go/types still produces a usable,
// possibly incomplete package); errors in pattern-matched packages are
// surfaced by Load.
func (l *Loader) check(p *loadPkg) (*types.Package, error) {
	l.mu.Lock()
	done := p.checked
	l.mu.Unlock()
	if done {
		return p.tpkg, p.err
	}

	var files []*ast.File
	var parseErr error
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil && parseErr == nil {
			parseErr = err
		}
		if f != nil {
			files = append(files, f)
		}
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(p.ImportPath, l.Fset, files, info)
	if parseErr != nil && firstErr == nil {
		firstErr = parseErr
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	p.checked = true
	p.files = files
	p.tpkg = tpkg
	p.info = info
	if p.Standard || p.DepOnly {
		// Best effort for dependencies: the partial package is enough to
		// resolve the symbols our own code uses.
		p.err = nil
	} else {
		p.err = firstErr
	}
	return p.tpkg, p.err
}

// FuncDecl returns the declaration of fn (of a generic function, its
// origin's) when the loader has type-checked fn's package from source, or
// nil. The declaration is the one whose defining identifier resolves to
// fn's own object, so methods of one name on different types are told
// apart.
func (l *Loader) FuncDecl(fn *types.Func) *ast.FuncDecl {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return nil
	}
	l.mu.Lock()
	p, ok := l.pkgs[fn.Pkg().Path()]
	if !ok || !p.checked || p.tpkg != fn.Pkg() {
		l.mu.Unlock()
		return nil
	}
	files, info := p.files, p.info
	l.mu.Unlock()
	for _, f := range files {
		if fn.Pos() < f.FileStart || fn.Pos() >= f.FileEnd {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && info.Defs[fd.Name] == fn {
				return fd
			}
		}
	}
	return nil
}

// CheckFiles type-checks an ad-hoc file set (test fixtures) under the
// given import path, resolving its imports through the loader. The
// fixture's imports must already be registered via a prior Load call.
func (l *Loader) CheckFiles(importPath string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	conf := types.Config{
		Importer:    l,
		FakeImportC: true,
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, _ := conf.Check(importPath, l.Fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return tpkg, info, nil
}
