// Package hotalloc implements the bflint analyzer that keeps the
// simulator per-cycle loops allocation-free. The ROADMAP's north star is
// a simulator "as fast as the hardware allows"; a single allocation per
// cycle multiplies into millions per sweep and dominates the profile.
// The hot loop (the simulator cycle loop, shared by both buffer modes)
// carries a `//bflint:hotpath` marker comment; inside a marked loop the
// analyzer flags
//
//   - make/new calls and slice, map, or pointer composite literals
//     (a fresh heap object every iteration — hoist the buffer),
//   - append to a slice whose backing was never preallocated with
//     capacity before the loop (traced through reaching definitions, so
//     `s = append(s, x)` chains resolve to the allocation that actually
//     backs them),
//   - function literals (a closure allocates its capture environment
//     per iteration — hoist it),
//   - interface boxing: a concrete non-pointer value passed to an
//     interface-typed parameter (fmt-style calls) allocates to box.
//
// The companion regression test routing.TestStepAllocsZero pins the
// dynamic truth the analyzer enforces statically.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"bfvlsi/internal/lint/analysis"
	"bfvlsi/internal/lint/cfg"
	"bfvlsi/internal/lint/dataflow"
)

// Marker is the comment that declares a loop allocation-critical.
const Marker = "//bflint:hotpath"

// Analyzer flags per-iteration heap allocations inside loops marked
// //bflint:hotpath.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "forbid per-iteration heap allocations (make, composite literals, closures, " +
		"append without preallocation, interface boxing) inside loops marked //bflint:hotpath",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		markers := markerLines(pass.Fset, f)
		if len(markers) == 0 {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			if pass.InTestFile(fd.Pos()) {
				return false
			}
			checkFunc(pass, fd, markers)
			return false
		})
	}
	return nil, nil
}

// markerLines collects the source lines carrying a hotpath marker.
func markerLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(strings.TrimSpace(c.Text), Marker) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	return lines
}

// markedLoop reports whether the loop statement at pos is annotated: the
// marker sits on the loop's own line or the line directly above it.
func markedLoop(fset *token.FileSet, markers map[int]bool, pos token.Pos) bool {
	line := fset.Position(pos).Line
	return markers[line] || markers[line-1]
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, markers map[int]bool) {
	// Collect marked loops first; reaching definitions are only computed
	// when the function actually contains one.
	var loops []ast.Stmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if markedLoop(pass.Fset, markers, n.Pos()) {
				loops = append(loops, n.(ast.Stmt))
			}
		case *ast.FuncLit:
			return false // nested literals get their own graphs; markers inside are out of scope
		}
		return true
	})
	if len(loops) == 0 {
		return
	}
	g := cfg.Build(fd.Body)
	reach := dataflow.Reaching(g, pass.TypesInfo)
	for _, loop := range loops {
		var body *ast.BlockStmt
		switch l := loop.(type) {
		case *ast.ForStmt:
			body = l.Body
		case *ast.RangeStmt:
			body = l.Body
		}
		checkLoopBody(pass, reach, loop, body)
	}
}

func checkLoopBody(pass *analysis.Pass, reach *dataflow.ReachingResult, loop ast.Stmt, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"closure created inside hot-path loop allocates its capture environment every iteration; hoist it before the loop")
			return false // its body is a different allocation context
		case *ast.CallExpr:
			checkCall(pass, reach, loop, n)
		case *ast.CompositeLit:
			checkCompositeLit(pass, n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Reportf(n.Pos(),
						"address of composite literal inside hot-path loop escapes to the heap every iteration; reuse a hoisted object")
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, reach *dataflow.ReachingResult, loop ast.Stmt, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(),
					"make inside hot-path loop allocates every iteration; hoist the buffer and reuse it")
				return
			case "new":
				pass.Reportf(call.Pos(),
					"new inside hot-path loop allocates every iteration; hoist the object and reuse it")
				return
			case "append":
				checkAppend(pass, reach, loop, call)
				return
			}
		}
	}
	checkBoxing(pass, call)
}

// checkCompositeLit flags slice and map literals: each one materialises
// a fresh backing store. Struct literals are value construction — no
// heap traffic unless addressed, which the UnaryExpr case reports.
func checkCompositeLit(pass *analysis.Pass, lit *ast.CompositeLit) {
	tv, ok := pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		pass.Reportf(lit.Pos(),
			"slice literal inside hot-path loop allocates a backing array every iteration; hoist and reuse it")
	case *types.Map:
		pass.Reportf(lit.Pos(),
			"map literal inside hot-path loop allocates every iteration; hoist and reuse it")
	}
}

// checkAppend flags append calls whose destination slice was never
// preallocated with capacity: the append grows the backing array
// repeatedly inside the hot loop. Through reaching definitions the slice
// is traced past carry-forwards (s = append(s, x), s = s[:0]) to its
// origin definitions; an origin is acceptable when it carries capacity
// (3-arg make, a reslice of an existing buffer, or a copy of another
// variable). A nil origin (plain `var s []T` or empty literal) is the
// violation.
func checkAppend(pass *analysis.Pass, reach *dataflow.ReachingResult, loop ast.Stmt, call *ast.CallExpr) {
	if len(call.Args) == 0 {
		return
	}
	id, ok := unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	v, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
	if !ok {
		return
	}
	// The append's enclosing statement is needed for the reaching query;
	// find the innermost statement containing the call.
	stmt := enclosingStmt(loop, call)
	if stmt == nil {
		return
	}
	origins := reach.Origins(stmt, v)
	for _, o := range origins {
		if badAppendOrigin(pass, o) {
			pass.Reportf(call.Pos(),
				"append to %s grows an unpreallocated slice inside a hot-path loop (declared without capacity at %s); preallocate with make(_, 0, n) or reuse a hoisted buffer",
				id.Name, pass.Fset.Position(o.Pos))
			return
		}
	}
}

// badAppendOrigin reports whether an origin definition provides no
// preallocated capacity.
func badAppendOrigin(pass *analysis.Pass, o *dataflow.Def) bool {
	if o.Rhs == nil {
		// `var s []T` (zero value, nil backing) or an untracked
		// multi-value/range binding. Only the former is a confident
		// violation: it is a DeclStmt.
		_, isDecl := o.Stmt.(*ast.DeclStmt)
		return isDecl
	}
	switch rhs := unparen(o.Rhs).(type) {
	case *ast.CompositeLit:
		// []T{} or []T{...}: fixed tiny capacity, regrows under append.
		return true
	case *ast.CallExpr:
		if id, ok := rhs.Fun.(*ast.Ident); ok {
			if b, ok := pass.TypesInfo.ObjectOf(id).(*types.Builtin); ok && b.Name() == "make" {
				return len(rhs.Args) < 3 // make without an explicit capacity
			}
		}
	}
	// Reslices, copies of other variables, call results: assume the
	// source managed capacity.
	return false
}

// checkBoxing flags concrete non-pointer values passed to
// interface-typed parameters: the conversion allocates to box the value.
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.IsType() {
		return // conversion, not a call
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			slice, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = slice.Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at, ok := pass.TypesInfo.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if at.IsNil() {
			continue
		}
		switch at.Type.Underlying().(type) {
		case *types.Interface, *types.Pointer:
			continue // already an interface, or fits the data word
		}
		pass.Reportf(arg.Pos(),
			"value of type %s boxes into an interface parameter inside a hot-path loop, allocating every iteration; move the call out of the loop or suppress with //bflint:ignore hotalloc",
			at.Type)
	}
}

// enclosingStmt returns the innermost statement under root that
// contains the node.
func enclosingStmt(root ast.Node, target ast.Node) ast.Stmt {
	var found ast.Stmt
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > target.Pos() || n.End() < target.End() {
			return false // does not contain target; prune
		}
		if s, ok := n.(ast.Stmt); ok {
			if _, isBlock := s.(*ast.BlockStmt); !isBlock {
				found = s // innermost container wins: recorded on the way down
			}
		}
		return true
	})
	return found
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
