package lint

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Escape-analysis ingestion. The allocfree analyzer's AST checks know
// which expressions *can* allocate; the compiler knows which of them
// actually reach the heap. `go build -gcflags=-m` prints one verdict per
// allocation site — "escapes to heap", "moved to heap: x", or "does not
// escape" — and the go tool replays the compiler's diagnostics from the
// build cache, so re-linting an unchanged package costs one cache probe,
// not a recompile. Parsing that output gives the analyzer ground truth:
// a `string(b)` used as a map key gets "does not escape" and is free; the
// same conversion stored into the map gets "escapes to heap" and is one
// allocation per call.

// EscapeVerdict is one compiler escape decision at a source line.
type EscapeVerdict struct {
	Line int
	Col  int
	// Text is the compiler's own description, e.g. "&ccVal{...} escapes
	// to heap" — it names the allocation source, so diagnostics can quote
	// it verbatim.
	Text string
	// Escapes is true for "escapes to heap"/"moved to heap" verdicts,
	// false for "does not escape".
	Escapes bool
	// File is the verdict's path as the compiler output spells it.
	File string
}

// EscapeFacts is the parsed escape-analysis output of one package,
// keyed by (file basename, line). Basenames suffice for the package's own
// files: a Go package cannot contain two files with one name. Verdicts
// in other packages' files (the bodies of generic functions the package
// instantiates) are told apart by path, see In.
type EscapeFacts struct {
	byLine map[string][]EscapeVerdict
	// dir is the absolute directory the package was compiled in.
	dir string
}

func lineFactKey(base string, line int) string {
	return base + ":" + strconv.Itoa(line)
}

// At returns the verdicts recorded for the given file (any path; the
// basename is used) and line.
func (f *EscapeFacts) At(file string, line int) []EscapeVerdict {
	if f == nil {
		return nil
	}
	return f.byLine[lineFactKey(filepath.Base(file), line)]
}

// In returns the verdicts at line of file, an absolute path, matching
// each verdict's spelled path rather than its basename. The go command
// spells a path relative to the directory it ran in when it compiled the
// package: the package's own directory on a fresh build ("../memo/memo.go"),
// or the directory of the build whose output the cache replays
// ("internal/memo/memo.go" from the module root). A relative spelling
// therefore names file when it resolves to file from the package's
// directory or from one of that directory's ancestors.
func (f *EscapeFacts) In(file string, line int) []EscapeVerdict {
	var out []EscapeVerdict
	for _, v := range f.At(file, line) {
		if filepath.IsAbs(v.File) {
			if filepath.Clean(v.File) == file {
				out = append(out, v)
			}
			continue
		}
		for dir := f.dir; ; dir = filepath.Dir(dir) {
			if filepath.Join(dir, v.File) == file {
				out = append(out, v)
				break
			}
			if dir == filepath.Dir(dir) {
				break
			}
		}
	}
	return out
}

// parseEscapeOutput extracts verdicts from compiler -m output. Lines
// look like:
//
//	./handler.go:362:8: &fastEntry{...} escapes to heap
//	internal/store/codec.go:97:13: string(b) does not escape
//	./capacity.go:120:2: moved to heap: probe
//
// Inlining chatter ("can inline", "inlining call to") and parameter leak
// reports are ignored.
func parseEscapeOutput(out []byte) *EscapeFacts {
	facts := &EscapeFacts{byLine: make(map[string][]EscapeVerdict)}
	for _, raw := range strings.Split(string(out), "\n") {
		line := strings.TrimSpace(raw)
		var escapes bool
		switch {
		case strings.HasSuffix(line, " escapes to heap"), strings.Contains(line, ": moved to heap:"):
			escapes = true
		case strings.HasSuffix(line, " does not escape"):
			escapes = false
		default:
			continue
		}
		// file.go:line:col: message
		rest := line
		i := strings.Index(rest, ".go:")
		if i < 0 {
			continue
		}
		file := rest[:i+3]
		rest = rest[i+4:]
		j := strings.IndexByte(rest, ':')
		if j < 0 {
			continue
		}
		lineNo, err := strconv.Atoi(rest[:j])
		if err != nil {
			continue
		}
		rest = rest[j+1:]
		k := strings.IndexByte(rest, ':')
		if k < 0 {
			continue
		}
		col, err := strconv.Atoi(rest[:k])
		if err != nil {
			continue
		}
		msg := strings.TrimSpace(rest[k+1:])
		key := lineFactKey(filepath.Base(file), lineNo)
		facts.byLine[key] = append(facts.byLine[key], EscapeVerdict{
			Line: lineNo, Col: col, Text: msg, Escapes: escapes, File: file,
		})
	}
	return facts
}

// escapeCache memoizes facts per package directory across a loader's
// lifetime (several analyzers or fixtures may share one package).
type escapeCache struct {
	mu sync.Mutex
	m  map[string]*escapeResult
}

type escapeResult struct {
	facts *EscapeFacts
	err   error
}

// EscapeFacts compiles the package rooted at dir with -gcflags=-m and
// returns the parsed verdicts, memoized per directory. The go tool
// replays compiler output from the build cache, so only the first lint
// of a changed package pays a compile.
func (l *Loader) EscapeFacts(dir string) (*EscapeFacts, error) {
	l.escMu.Lock()
	if l.escapes == nil {
		l.escapes = make(map[string]*escapeResult)
	}
	if r, ok := l.escapes[dir]; ok {
		l.escMu.Unlock()
		return r.facts, r.err
	}
	l.escMu.Unlock()

	cmd := exec.Command("go", "build", "-gcflags=-m", ".")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	r := &escapeResult{}
	if err != nil {
		r.err = &escapeError{dir: dir, detail: strings.TrimSpace(stderr.String())}
	} else {
		r.facts = parseEscapeOutput(stderr.Bytes())
		r.facts.dir, r.err = filepath.Abs(dir)
	}

	l.escMu.Lock()
	l.escapes[dir] = r
	l.escMu.Unlock()
	return r.facts, r.err
}

type escapeError struct {
	dir    string
	detail string
}

func (e *escapeError) Error() string {
	return "lint: escape analysis of " + e.dir + " failed: " + e.detail
}
