// Command caer-vet runs the repo-specific static analysis suite over the
// CAER tree (see internal/analysis). It loads and type-checks every
// package named by its patterns using only the standard library, applies
// every analyzer, and prints findings compiler-style:
//
//	file:line:col: [analyzer] message
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors.
//
// Usage:
//
//	caer-vet [-C dir] [-list] [-json] [-analyzer list] [-unused-suppressions] [pattern ...]
//
// Patterns are package directories or "dir/..." wildcards, resolved
// against the enclosing module; the default is "./...". -analyzer runs a
// comma-separated subset of the suite; -json emits the findings as one
// machine-readable document on stdout instead of compiler-style lines;
// -unused-suppressions additionally reports //caer:allow comments that
// waived nothing, //caer:cold barriers no hot function calls, and
// //caer:hot roots another root already reaches (CI turns this on so dead
// waivers cannot accumulate). What the analyzers check against comes from
// //caer: directives on the declarations themselves (internal/analysis,
// directives.go), so a partial run such as `caer-vet ./internal/comm`
// cannot see hot roots in packages it does not load; the gates run ./...
// Findings can be waived in source with a documented suppression comment,
// whose reason is mandatory:
//
//	//caer:allow <analyzer>[,<analyzer>...] <reason>
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"caer/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("caer-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chdir := fs.String("C", "", "run as if started in `dir`")
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit findings as a JSON document on stdout")
	subset := fs.String("analyzer", "", "comma-separated `names` of analyzers to run (default: all)")
	unused := fs.Bool("unused-suppressions", false, "report //caer:allow comments that waived nothing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	start := *chdir
	if start == "" {
		start = "."
	}
	if st, err := os.Stat(start); err != nil || !st.IsDir() {
		fmt.Fprintf(stderr, "caer-vet: %s is not a directory\n", start)
		return 2
	}
	modRoot, modPath, err := analysis.FindModule(start)
	if err != nil {
		fmt.Fprintln(stderr, "caer-vet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := analysis.ExpandPatterns(modRoot, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "caer-vet:", err)
		return 2
	}

	analyzers := analysis.Analyzers()
	if *subset != "" {
		analyzers, err = analysis.SelectAnalyzers(*subset)
		if err != nil {
			fmt.Fprintln(stderr, "caer-vet:", err)
			return 2
		}
	}
	cfg := &analysis.Config{ReportUnusedSuppressions: *unused}
	findings, err := analysis.Vet(modRoot, modPath, dirs, analyzers, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "caer-vet:", err)
		return 2
	}
	if *jsonOut {
		if err := analysis.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintln(stderr, "caer-vet:", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f.String())
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "caer-vet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
