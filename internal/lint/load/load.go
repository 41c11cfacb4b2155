// Package load turns Go package patterns into parsed, type-checked
// packages for the bflint analyzers — a small stand-in for
// golang.org/x/tools/go/packages built from the standard library only.
// It is bflint's one type-check path, for standalone runs and the
// `go vet -vettool` mode alike: the analyzed packages are parsed and
// checked from source, and their imports are read from the compiler's
// export data. Standalone, `go list -export -deps` (the only authority on
// pattern expansion and build-tag file selection) names the export data
// files and builds any that are not in the build cache; under go vet, the
// go command hands each unit the same map.
package load

import (
	"bytes"
	"encoding/json"
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
	"sort"
	"strconv"
	"strings"
)

// A Package is one parsed and type-checked package ready for analysis.
type Package struct {
	Path  string // import path
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader type-checks packages against one FileSet, importing their
// dependencies from compiled export data.
type Loader struct {
	Fset *token.FileSet
	// Importer resolves the imports of checked packages. It is the
	// loader's own export-data Import unless a caller layers another
	// resolver over it (the analysistest harness resolves fixture
	// packages this way).
	Importer types.Importer

	gc        types.Importer
	goVersion string            // language version to check at; empty means the toolchain's
	importMap map[string]string // import path → package path; nil maps a path to itself
	exports   map[string]string // package path → export data file
	golist    bool              // fill the export map with go list
}

// New returns a standalone loader. It runs the go command, so callers
// must run with a working directory inside the module.
func New() *Loader {
	return newLoader(nil, map[string]string{}, true)
}

// ForUnit returns a loader for one `go vet` compilation unit: imports
// resolve through the unit's ImportMap and PackageFile, a path the unit
// does not name is an error, and packages are checked at the unit's
// language version.
func ForUnit(importMap, packageFile map[string]string, goVersion string) *Loader {
	l := newLoader(importMap, packageFile, false)
	l.goVersion = goVersion
	return l
}

func newLoader(importMap, exports map[string]string, golist bool) *Loader {
	l := &Loader{Fset: token.NewFileSet(), importMap: importMap, exports: exports, golist: golist}
	l.gc = importer.ForCompiler(l.Fset, "gc", l.open)
	l.Importer = l
	return l
}

// Import reads the named package from its export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if l.importMap != nil {
		resolved, ok := l.importMap[path]
		if !ok {
			return nil, fmt.Errorf("can't resolve import %q", path)
		}
		path = resolved
	}
	return l.gc.Import(path)
}

// open is the export-data lookup of the gc importer.
func (l *Loader) open(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// list runs `go list -e -export -deps` over the patterns, records the
// export data file of every package it names, and returns the listed
// packages. A package go list cannot build carries an Error instead of
// an export file.
func (l *Loader) list(patterns ...string) ([]listedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var listed []listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		if lp.Export != "" {
			l.exports[lp.ImportPath] = lp.Export
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// Load expands the patterns with `go list` and type-checks each
// matched package from source (non-test files only), in import-path
// order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.list(patterns...)
	if err != nil {
		return nil, err
	}
	var matched []listedPackage
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if !lp.DepOnly && len(lp.GoFiles) > 0 {
			matched = append(matched, lp)
		}
	}
	sort.Slice(matched, func(i, j int) bool { return matched[i].ImportPath < matched[j].ImportPath })
	var pkgs []*Package
	for _, lp := range matched {
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.Check(lp.ImportPath, lp.Dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Check parses the named files and type-checks them as one package
// under the given import path.
func (l *Loader) Check(path, dir string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return l.CheckFiles(path, dir, files)
}

// CheckFiles type-checks already-parsed files as one package. A
// standalone loader first lists, in one go list call, the imports its
// export map lacks; a path go list cannot build (a fixture-local
// import) stays missing, for a layered Importer to resolve.
func (l *Loader) CheckFiles(path, dir string, files []*ast.File) (*Package, error) {
	if l.golist {
		var missing []string
		for _, f := range files {
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if _, ok := l.exports[imp]; err == nil && !ok && imp != "unsafe" {
					missing = append(missing, imp)
				}
			}
		}
		if len(missing) > 0 {
			if _, err := l.list(missing...); err != nil {
				return nil, err
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l.Importer, GoVersion: l.goVersion}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}, nil
}
