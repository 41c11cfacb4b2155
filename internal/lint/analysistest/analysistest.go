// Package analysistest runs an analyzer over fixture packages and
// checks its diagnostics against `// want` comments in the fixture
// source — the golden-test harness of the bflint suite, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// Fixtures live under <testdata>/src/<importpath>/*.go. A line that
// should be flagged carries a trailing comment of the form
//
//	code() // want "regexp"
//
// with one quoted regexp per expected diagnostic on that line. Every
// diagnostic must match a want and every want must be matched, or the
// test fails.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bfvlsi/internal/lint/analysis"
	"bfvlsi/internal/lint/load"
)

// Run loads each fixture package from testdata/src/<path>, applies the
// analyzer, and compares diagnostics against the fixtures' want
// comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := load.New()
	fx := &fixtureImporter{testdata: testdata, loader: ld, cache: map[string]*load.Package{}}
	ld.Importer = fx
	for _, path := range pkgPaths {
		pkg, err := fx.load(path)
		if err != nil {
			t.Fatalf("loading fixture %s: %v", path, err)
		}
		checkPackage(t, a, pkg)
	}
}

// fixtureImporter resolves import paths against the fixture tree first
// and falls back to the loader's export data for everything else (the
// standard library and real module packages).
type fixtureImporter struct {
	testdata string
	loader   *load.Loader
	cache    map[string]*load.Package
}

func (fx *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, err := fx.load(path); err == nil {
		return p.Types, nil
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	return fx.loader.Import(path)
}

func (fx *fixtureImporter) load(path string) (*load.Package, error) {
	if p, ok := fx.cache[path]; ok {
		return p, nil
	}
	dir := filepath.Join(fx.testdata, "src", filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s: no Go files in %s", path, dir)
	}
	pkg, err := fx.loader.Check(path, dir, files)
	if err != nil {
		return nil, err
	}
	fx.cache[path] = pkg
	return pkg, nil
}

// expectation is one want regexp anchored to a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

func checkPackage(t *testing.T, a *analysis.Analyzer, pkg *load.Package) {
	t.Helper()
	wants := collectWants(t, pkg.Fset, pkg.Files)

	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if _, err := a.Run(pass); err != nil {
		t.Fatalf("%s: analyzer failed on %s: %v", a.Name, pkg.Path, err)
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !matchWant(wants, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic at %s:%d: %s", a.Name, filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: expected diagnostic matching %q at %s:%d, got none", a.Name, w.raw, filepath.Base(w.file), w.line)
		}
	}
}

func matchWant(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRE extracts the quoted regexps of a want comment. Both
// double-quoted and backquoted Go string literals are accepted.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, lit := range wantRE.FindAllString(text[len("want "):], -1) {
					raw, err := strconv.Unquote(lit)
					if err != nil {
						t.Fatalf("%s:%d: malformed want literal %s: %v", pos.Filename, pos.Line, lit, err)
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return wants
}
