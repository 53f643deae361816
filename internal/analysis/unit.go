package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
)

// vetConfig mirrors the JSON configuration file cmd/go passes to a
// `-vettool` for each package unit (see cmd/go/internal/work's vetConfig).
// Only the fields this driver consumes are declared; unknown fields are
// ignored by encoding/json.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	GoVersion                 string
	SucceedOnTypecheckFailure bool
}

// RunUnit executes the analyzer suite on one vet.cfg unit. It returns the
// number of diagnostics printed to w. Protocol notes:
//
//   - VetxOnly units exist only to export facts for dependents; this suite
//     has no cross-package facts, so they are satisfied by an empty vetx.
//   - Export data for imports is resolved through ImportMap (source path →
//     canonical path) and PackageFile (canonical path → compiled export
//     file), read with the stdlib gc importer.
func RunUnit(cfgPath string, enabled map[string]bool, w io.Writer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %v", cfgPath, err)
	}

	if cfg.VetxOutput != "" {
		// cmd/go reads this back opportunistically for caching; content
		// is opaque to it.
		if err := os.WriteFile(cfg.VetxOutput, []byte("sqlarraylint: no facts\n"), 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly {
		return 0, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0, nil
			}
			return 0, err
		}
		files = append(files, f)
	}

	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if canon, ok := cfg.ImportMap[path]; ok {
			path = canon
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, compiler, lookup)

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tcfg := &types.Config{
		Importer:  imp,
		GoVersion: cfg.GoVersion,
		Error:     func(error) {}, // collect via returned err; keep going
	}
	pkg, err := tcfg.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err)
	}

	return runAnalyzers(fset, files, pkg, info, enabled, w)
}

// runAnalyzers runs every enabled analyzer over one type-checked package
// and prints diagnostics in `file:line:col: analyzer: message` form.
func runAnalyzers(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, enabled map[string]bool, w io.Writer) (int, error) {
	n := 0
	for _, a := range All() {
		if enabled != nil && !enabled[a.Name] {
			continue
		}
		pass := NewPass(a, fset, files, pkg, info)
		if err := a.Run(pass); err != nil {
			return n, fmt.Errorf("analyzer %s: %v", a.Name, err)
		}
		for _, d := range pass.Diagnostics() {
			pos := fset.Position(d.Pos)
			fmt.Fprintf(w, "%s:%d:%d: %s: %s\n", pos.Filename, pos.Line, pos.Column, d.Analyzer, d.Message)
			n++
		}
	}
	return n, nil
}
