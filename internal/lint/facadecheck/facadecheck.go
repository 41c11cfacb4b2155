// Package facadecheck implements the bflint analyzer that keeps the
// root bfvlsi facade honest. Internal packages are invisible to
// downstream users; the facade file re-exports their API as type
// aliases, wrapper functions, and const/var re-bindings. Every PR that
// adds an exported symbol to a blessed internal package must either
// re-export it through the facade or record an explicit exemption —
// otherwise the public surface silently drifts behind the
// implementation.
//
// A symbol counts as re-exported when any exported top-level
// declaration of the facade package references it. Deliberate omissions
// are declared in the facade source as
//
//	//facade:exempt routing.MaxDetours enforced by NewAdaptiveRouter
//
// naming the symbol as <package short name>.<symbol>, with an optional
// trailing reason.
package facadecheck

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"bfvlsi/internal/lint/analysis"
)

// Blessed lists the import paths whose exported surface the facade
// must cover. Tests narrow it to fixture packages.
var Blessed = []string{
	"bfvlsi/internal/routing",
	"bfvlsi/internal/faults",
	"bfvlsi/internal/reliable",
	"bfvlsi/internal/adaptive",
}

// Analyzer reports exported symbols of blessed internal packages that
// the facade package neither re-exports nor exempts.
var Analyzer = &analysis.Analyzer{
	Name: "facadecheck",
	Doc: "require every exported symbol of blessed internal packages to be re-exported " +
		"through the facade package or explicitly exempted with a //facade:exempt comment",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	blessed := map[string]bool{}
	for _, p := range Blessed {
		blessed[p] = true
	}

	// covered holds every object from a blessed package referenced by
	// an exported top-level declaration of the facade.
	covered := map[types.Object]bool{}
	exempt := map[string]bool{}
	// importPos maps a blessed package path to its import spec, the
	// natural anchor for "missing from facade" diagnostics.
	importPos := map[string]ast.Node{}

	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if blessed[path] {
				importPos[path] = imp
			}
		}
		collectExemptions(f, exempt)
		for _, decl := range f.Decls {
			if !exportedDecl(decl) {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pass.TypesInfo.Uses[id]
				if obj != nil && obj.Pkg() != nil && blessed[obj.Pkg().Path()] {
					covered[obj] = true
				}
				return true
			})
		}
	}

	for _, path := range Blessed {
		var pkg *types.Package
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == path {
				pkg = imp
				break
			}
		}
		anchor := pass.Files[0].Name.Pos()
		if n, ok := importPos[path]; ok {
			anchor = n.Pos()
		}
		if pkg == nil {
			pass.Reportf(anchor, "blessed package %s is not imported by the facade package", path)
			continue
		}
		scope := pkg.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			obj := scope.Lookup(name)
			if !obj.Exported() || covered[obj] {
				continue
			}
			if exempt[pkg.Name()+"."+name] {
				continue
			}
			pass.Reportf(anchor,
				"exported symbol %s.%s is not re-exported by the facade; add a re-export or a //facade:exempt %s.%s comment",
				pkg.Name(), name, pkg.Name(), name)
		}
	}
	return nil, nil
}

// collectExemptions gathers //facade:exempt pkg.Sym comments.
func collectExemptions(f *ast.File, exempt map[string]bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "facade:exempt") {
				continue
			}
			fields := strings.Fields(strings.TrimPrefix(text, "facade:exempt"))
			if len(fields) > 0 {
				exempt[fields[0]] = true
			}
		}
	}
}

// exportedDecl reports whether the top-level declaration defines at
// least one exported name (a re-export must itself be public to count).
func exportedDecl(decl ast.Decl) bool {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return d.Recv == nil && d.Name.IsExported()
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() {
					return true
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						return true
					}
				}
			}
		}
	}
	return false
}
