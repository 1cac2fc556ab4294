// Command cdnlint runs the repo's invariant analyzers (internal/analysis)
// over Go packages, loading them through `go list -export`:
//
//	cdnlint ./...
//	cdnlint -checks detrand,maporder ./internal/bgp
//
// Exit status: 0 clean, 1 diagnostics reported, 3 operational failure.
//
// Check selection: -checks runs a named subset; subset runs disable the
// stale-//lint:ignore report, since an ignore for a check that is not
// running would look spuriously unused. Only non-test Go files are
// analyzed: test files may use wall clocks and allocate freely.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"bestofboth/internal/analysis"
)

func main() {
	flagChecks := flag.String("checks", "", "comma-separated checks to run (default: all)")
	flagList := flag.Bool("list", false, "list available checks and exit")
	flag.Parse()

	if *flagList {
		for _, a := range analysis.All() {
			fmt.Printf("cdnlint/%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := analysis.Select(*flagChecks)
	if err != nil {
		fatalf("%v", err)
	}
	opts := analysis.Options{StaleCheck: *flagChecks == ""}
	os.Exit(runStandalone(flag.Args(), analyzers, opts))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cdnlint: "+format+"\n", args...)
	os.Exit(3)
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// runStandalone loads the packages matching the patterns (default ./...)
// with `go list -export -json -deps`, type-checks each target against
// the export data of its dependencies, and prints one line per diagnostic.
// The exit code is 1 exactly when unsuppressed findings exist.
func runStandalone(patterns []string, analyzers []*analysis.Analyzer, opts analysis.Options) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"list", "-export", "-json", "-deps"}, patterns...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fatalf("go list -export: %v", err)
	}

	exports := map[string]string{}
	var targets []*listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			fatalf("decoding go list output: %v", err)
		}
		if p.Error != nil {
			fatalf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			tp := p
			targets = append(targets, &tp)
		}
	}

	fset := token.NewFileSet()
	imp := exportDataImporter(fset, exports)
	exit := 0
	for _, p := range targets {
		if len(p.CgoFiles) > 0 {
			fmt.Fprintf(os.Stderr, "cdnlint: skipping %s: cgo packages are not supported\n", p.ImportPath)
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		diags, err := analyze(fset, imp, p.ImportPath, files, analyzers, opts)
		if err != nil {
			fatalf("%s: %v", p.ImportPath, err)
		}
		for _, d := range diags {
			fmt.Println(relativized(d).String())
			exit = 1
		}
	}
	return exit
}

// relativized rewrites the diagnostic's path relative to the working
// directory when that is shorter.
func relativized(d analysis.Diagnostic) analysis.Diagnostic {
	wd, err := os.Getwd()
	if err != nil {
		return d
	}
	rel, err := filepath.Rel(wd, d.Pos.Filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return d
	}
	d.Pos.Filename = rel
	return d
}

// exportDataImporter resolves imports against the Export files collected
// from go list, special-casing unsafe (which has no export data).
func exportDataImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// analyze parses and type-checks one package's files and runs the
// analyzers over it.
func analyze(fset *token.FileSet, imp types.Importer, path string, filenames []string,
	analyzers []*analysis.Analyzer, opts analysis.Options) ([]analysis.Diagnostic, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return analysis.Run(&analysis.Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, analyzers, opts), nil
}
