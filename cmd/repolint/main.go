// Command repolint runs the repository's determinism and concurrency
// analyzers (internal/lint) over the given package patterns — a
// multichecker in the go/analysis mold, built on the standard library.
//
//	repolint [-list] [-json] [-timing] [packages...]
//
// Patterns default to ./... relative to the current directory. The exit
// status is 0 when the tree is clean, 1 when findings are reported, and
// 2 on usage or load errors, so `make tier1` can gate on it directly.
//
// -json emits one {"file","line","col","analyzer","message"} record per
// finding (a JSON array on stdout) for machine consumers; the default
// go-vet-style text output matches the GitHub Actions problem matcher in
// .github/repolint-problem-matcher.json, which annotates PR diffs with
// findings. -timing prints per-analyzer wall time to stderr after the
// run, so the ~3s whole-module budget stays attributable as the suite
// grows.
//
// Findings can be suppressed per line with a reasoned annotation:
//
//	//lint:allow <analyzer> <reason>
//
// either on the flagged line or alone on the line above it. The reason is
// mandatory; a bare //lint:allow is itself a finding. Each analyzer's
// package scope is lint.DefaultConfig's; no file in the tree changes it.
//
// See DESIGN.md §10 and §15 for each analyzer and the invariant it
// guards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"github.com/netmeasure/muststaple/internal/lint"
)

func main() {
	os.Exit(run())
}

// jsonFinding is the machine-readable record shape for -json. The field
// set mirrors the problem matcher's capture groups.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run() int {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array instead of text")
	timing := flag.Bool("timing", false, "print per-analyzer wall time to stderr")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var opts *lint.RunOptions
	if *timing {
		opts = &lint.RunOptions{Timings: make(map[string]time.Duration)}
	}
	diags, err := lint.RunWithOptions("", analyzers, lint.DefaultConfig(), opts, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *jsonOut {
		records := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			records = append(records, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *timing {
		names := make([]string, 0, len(opts.Timings))
		for name := range opts.Timings {
			names = append(names, name)
		}
		sort.Strings(names)
		var total time.Duration
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "repolint: %-14s %8.1fms\n", name, float64(opts.Timings[name].Microseconds())/1000)
			total += opts.Timings[name]
		}
		fmt.Fprintf(os.Stderr, "repolint: %-14s %8.1fms\n", "total", float64(total.Microseconds())/1000)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "repolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
